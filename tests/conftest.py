import pytest

from stokeswave import (BoundaryCollar, DampingProfile, ModalSystem, Rectangle, SideStrip,
                        StaggeredGrid, damping_matrix, stokes_eigenpairs)


@pytest.fixture(scope="session")
def square():
    return Rectangle(1.0, 1.0)


@pytest.fixture(scope="session")
def grid16():
    return StaggeredGrid(16, 16, 1.0 / 16)


@pytest.fixture(scope="session")
def grid32():
    return StaggeredGrid(32, 32, 1.0 / 32)


@pytest.fixture(scope="session")
def grid64(square):
    return StaggeredGrid.for_rectangle(square, 64)


@pytest.fixture(scope="session")
def pairs64(grid64):
    return stokes_eigenpairs(grid64, 100)


@pytest.fixture(scope="session")
def pairs128(square):
    grid = StaggeredGrid.for_rectangle(square, 128)
    return stokes_eigenpairs(grid, 100)


@pytest.fixture(scope="session")
def collar(square):
    # the coverage-positive configuration: plateau within 0.1 of the boundary
    return DampingProfile(square, BoundaryCollar(0.1), 1.0, 0.02)


@pytest.fixture(scope="session")
def strip01(square):
    # the coverage-negative configuration: one-side strip of the same feature width
    return DampingProfile(square, SideStrip("left", 0.1), 1.0, 0.02)


@pytest.fixture(scope="session")
def ms_collar(pairs64, collar):
    return ModalSystem(pairs64, damping_matrix(pairs64, collar))


@pytest.fixture(scope="session")
def ms_strip(pairs64, strip01):
    return ModalSystem(pairs64, damping_matrix(pairs64, strip01))
