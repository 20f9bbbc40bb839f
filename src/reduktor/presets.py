"""Canonical bath models for demos, cross-checks, and batteries."""

from __future__ import annotations

import numpy as np

from .channels import BathModel

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def spin_flip_model() -> BathModel:
    """Bathless two-level model with a flip generator, computational basis.

    The generated matrix is [[cos^2 t, sin^2 t], [sin^2 t, cos^2 t]] with
    compression |cos 2t|; generic with a compression zero near t = pi/4,
    and 2*pi-periodic.
    """
    return BathModel(SIGMA_X.reshape(1, 1, 2, 2))


def bathless_diagonal_model() -> BathModel:
    """Generator diag(0, 1) measured in its own eigenbasis: M(t) = identity.

    Eigenvalues are passed in ascending order so the cached
    eigendecomposition is exactly the computational basis.
    """
    return BathModel(np.diag([0.0, 1.0]).astype(complex).reshape(1, 1, 2, 2))


def random_model(n, n2, seed, scale=1.0) -> BathModel:
    """Random Hermitian joint generator with unit spectral radius * scale."""
    rng = np.random.default_rng(seed)
    dim = n * n2
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    joint = (g + g.conj().T) / 2.0
    joint *= scale / np.linalg.norm(joint, 2)
    return BathModel.from_joint_generator(joint, n, n2)


def block_diagonal_model(model_a: BathModel, model_b: BathModel) -> BathModel:
    """Direct sum of two models over a common bath dimension.

    The generated matrix family is block diagonal, so the limiting
    projector is blockwise uniform rather than globally uniform.
    """
    if model_a.n2 != model_b.n2:
        raise ValueError("direct sum requires matching bath dimensions")
    n2 = model_a.n2
    na, nb = model_a.n, model_b.n
    n = na + nb
    blocks = np.zeros((n2, n2, n, n), dtype=complex)
    blocks[:, :, :na, :na] = model_a.blocks
    blocks[:, :, na:, na:] = model_b.blocks
    basis = np.zeros((n, n), dtype=complex)
    basis[:na, :na] = model_a.basis
    basis[na:, na:] = model_b.basis
    return BathModel(blocks, basis=basis)


def integer_spectrum_model(n, n2, seed) -> BathModel:
    """Model whose joint generator has the eigenvalues k - d // 2, k < d = n n2.

    All propagator beat frequencies are integers, so the generated matrix
    family is 2*pi-periodic.
    """
    dim = n * n2
    spectrum = np.arange(dim, dtype=float) - dim // 2
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    joint = (q * spectrum) @ q.conj().T
    joint = (joint + joint.conj().T) / 2.0
    return BathModel.from_joint_generator(joint, n, n2)


def battery():
    """Fixed battery of ten generic random models at desk-scale dimensions."""
    shapes = [(2, 2), (3, 2), (2, 2), (3, 2), (2, 3),
              (3, 2), (2, 2), (3, 3), (2, 3), (3, 2)]
    return [random_model(n, n2, seed=100 + i) for i, (n, n2) in enumerate(shapes)]
