import pytest

from kirchhoff_spectral import SpectralGrid


@pytest.fixture(scope="session")
def grid1():
    return SpectralGrid(1, 8)


@pytest.fixture(scope="session")
def grid1_small():
    return SpectralGrid(1, 4)


@pytest.fixture(scope="session")
def grid2():
    return SpectralGrid(2, 4)


#: the grids of the doubled-basis layout tests: one per dimension, and one
#: whose difference table has its sign flipped (the negative control's grid)
LAYOUT_GRIDS = ((1, 8, False), (2, 8, False), (3, 8, False), (2, 8, True))


@pytest.fixture(
    scope="session",
    params=LAYOUT_GRIDS,
    ids=lambda p: f"d{p[0]}-N{p[1]}" + ("-corrupt" if p[2] else ""),
)
def layout_grid(request):
    d, n_cutoff, corrupt = request.param
    return SpectralGrid(d, n_cutoff, corrupt_diff_sign=corrupt)
