import functools
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hdist
from hdist.grid import (Grid, GridFunction, adjoint_image, conj_sum, dft, hermitian_part,
                        idft, image, linf_norm, lp_norm, lp_norms, pairing, round_trips,
                        spectrum)
from hdist.multiplier import bessel_potential, derivative_op
from hdist.registry import make_field
from hdist.util import multi_indices


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 128, 16.0)


def random_smooth(grid, seed=0, band=6):
    """Band-limited random field: smooth by construction."""
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.shape, dtype=complex)
    for _ in range(12):
        m = rng.integers(-band, band + 1, size=grid.d)
        spec[tuple(m % grid.N)] = rng.normal() + 1j * rng.normal()
    return idft(grid, spec)


def plane_wave(grid, m0):
    coords = grid.x_axes
    phase = sum(c * m for c, m in zip(coords, m0)) * (2j * np.pi / grid.L)
    return GridFunction(grid, np.exp(phase))


@st.composite
def grids(draw):
    """A 2- or 3-D grid of a drawn size and box side."""
    d = draw(st.sampled_from([2, 3]))
    return Grid(d, draw(st.sampled_from([8, 16, 32] if d == 2 else [8, 16])),
                draw(st.floats(2.0, 20.0)))


def random_field(grid, seed):
    """Independent complex normal values at every point: no smoothness."""
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.normal(size=grid.shape)
                        + 1j * rng.normal(size=grid.shape))


class TestGridValidation:
    def test_dimension(self):
        with pytest.raises(ValueError):
            Grid(4, 64, 8.0)

    def test_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(2, 100, 8.0)
        with pytest.raises(ValueError):
            Grid(2, 4, 8.0)

    def test_box_length(self):
        with pytest.raises(ValueError):
            Grid(2, 64, -1.0)

    @pytest.mark.parametrize("d, L", [(2, np.inf), (2, 1e300), (3, 1e103), (2, 1e-200),
                                      (3, 1e-110), (3, np.float64(1e300))])
    def test_box_and_cell_volume_are_positive_floats(self, d, L):
        # L^d past the float range (an OverflowError in cell_volume, NaN
        # coordinates at L = inf) or under it (a zero divisor in idft)
        with pytest.raises(ValueError, match="volume"):
            Grid(d, 16, L)
        Grid(d, 16, 1e100), Grid(d, 16, 1e-100)  # inside the range

    def test_shape_mismatch(self, grid):
        with pytest.raises(ValueError):
            GridFunction(grid, np.zeros((4, 4)))


class TestSample:
    def test_cached_result_stays_writeable_and_unaliased(self, grid):
        cached = np.ones(grid.shape, dtype=np.complex128)
        f = grid.sample(lambda x, y: cached)
        assert cached.flags.writeable
        assert not np.may_share_memory(f.values, cached)
        cached[0, 0] = 5.0
        assert f.values[0, 0] == 1.0


def sampler(kind, seed):
    """A callable on the sparse x_axes returning random samples of one kind."""
    rng = np.random.default_rng(seed)

    def fn(*x):
        vals = rng.normal(size=np.broadcast_shapes(*(c.shape for c in x)))
        if kind == "int":
            return np.rint(4 * vals).astype(np.int64)
        if kind == "bool":
            return vals > 0
        if kind == "complex":
            return vals + 1j * rng.normal(size=vals.shape)
        return vals

    return fn


class TestRealSamples:
    """Real samples stay float64 and complex ones complex128; both meet the
    transform and the pairing as their complex cast would."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(grids(), st.sampled_from(["float", "int", "bool", "complex"]),
           st.integers(0, 2**16))
    def test_dtype_rule(self, grid, kind, seed):
        want = np.complex128 if kind == "complex" else np.float64
        raw = sampler(kind, seed)(*grid.x_axes)
        for f in (grid.sample(sampler(kind, seed)), GridFunction(grid, raw)):
            assert f.values.dtype == want
            assert f.values.flags.c_contiguous and not f.values.flags.writeable
            assert np.array_equal(f.values, raw)
            if kind == "complex":
                assert np.array_equal(f.conj().values, np.conj(raw))
            else:
                assert f.conj() is f

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(grids(), st.integers(0, 2**16))
    def test_real_dft_matches_complex_cast(self, grid, seed):
        f = grid.sample(sampler("float", seed))
        got, want = dft(f), dft(GridFunction(grid, f.values.astype(np.complex128)))
        assert got.dtype == np.complex128
        eps = np.finfo(float).eps
        assert np.max(np.abs(got - want)) <= 8 * eps * np.max(np.abs(want))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(grids(), st.sampled_from(["float", "complex"]),
           st.sampled_from(["float", "complex"]), st.integers(0, 2**16))
    def test_conj_sum_matches_complex_cast(self, grid, kind_f, kind_g, seed):
        f = sampler(kind_f, seed)(*grid.x_axes)
        g = sampler(kind_g, seed + 1)(*grid.x_axes)
        got = conj_sum(f, g)
        want = conj_sum(f.astype(np.complex128), g.astype(np.complex128))
        if "complex" in (kind_f, kind_g):
            assert got == want  # the same products, summed in the same order
        else:
            # a float sum: numpy blocks float and complex sums differently
            assert want.imag == 0
            assert abs(got - want.real) <= 1e-14 * np.sum(np.abs(f * g))


class TestDft:
    def test_constant(self, grid):
        f = grid.sample(lambda x, y: np.ones_like(x))
        fh = dft(f)
        assert fh[0, 0] == pytest.approx(grid.L**2)
        rest = fh.copy()
        rest[0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-10 * grid.L**2

    def test_plane_wave(self, grid):
        m0 = (3, -5)
        fh = dft(plane_wave(grid, m0))
        idx = tuple(m % grid.N for m in m0)
        assert fh[idx] == pytest.approx(grid.L**2, rel=1e-12)
        rest = fh.copy()
        rest[idx] = 0
        assert np.max(np.abs(rest)) < 1e-10 * grid.L**2

    def test_gaussian_pair(self):
        # closed-form transform of exp(-pi |x|^2) is exp(-pi |xi|^2)
        g = Grid(2, 128, 16.0)
        f = g.sample(lambda x, y: np.exp(-np.pi * (x**2 + y**2)))
        fh = dft(f)
        mesh = g.xi_axes
        target = np.exp(-np.pi * (mesh[0] ** 2 + mesh[1] ** 2))
        assert np.max(np.abs(fh - target)) < 1e-10

    def test_round_trip(self, grid):
        f = random_smooth(grid, seed=3)
        back = idft(grid, dft(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * max(
            1.0, np.max(np.abs(f.values))
        )

    def test_side_tags(self):
        # a field and a spectrum are different types: mixing them up fails
        # loudly instead of transforming the wrong side
        grid = Grid(2, 16, 8.0)
        f = grid.sample(lambda x, y: np.exp(-(x**2 + y**2)))
        with pytest.raises(TypeError):
            idft(grid, f)
        with pytest.raises(AttributeError):
            dft(dft(f))
        with pytest.raises(ValueError):
            idft(Grid(2, 32, 8.0), dft(f))


class TestNorms:
    def test_constant_lp(self, grid):
        c = 2.5 - 1.0j
        f = grid.sample(lambda x, y: np.full_like(x, 1.0)) * c
        for p in (1.5, 2.0, 4.0):
            assert lp_norm(f, p) == pytest.approx(abs(c) * grid.L ** (2 / p))

    def test_homogeneity(self, grid):
        f = grid.sample(lambda x, y: np.exp(-(x**2 + y**2)))
        s = -3.7
        assert lp_norm(f * s, 2.5) == pytest.approx(abs(s) * lp_norm(f, 2.5))

    def test_gaussian_l2(self):
        # integral of exp(-2 pi |x|^2) over R^2 is 1/2
        g = Grid(2, 128, 16.0)
        f = g.sample(lambda x, y: np.exp(-np.pi * (x**2 + y**2)))
        assert abs(lp_norm(f, 2.0) - 2**-0.5) < 1e-8

    def test_exponent_range(self, grid):
        f = grid.sample(lambda x, y: np.ones_like(x))
        for p in (1.0, 0.5, np.inf):
            with pytest.raises(ValueError):
                lp_norm(f, p)
        assert linf_norm(f) == pytest.approx(1.0)

    def test_monotone_under_domination(self, grid):
        f = grid.sample(lambda x, y: np.exp(-(x**2 + y**2)))
        g = f * 0.5
        for p in (1.5, 2.0, 3.0):
            assert lp_norm(g, p) <= lp_norm(f, p)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(e=st.integers(-150, 150), sign=st.sampled_from([1.0, -1.0]),
           p=st.floats(1.0, 8.0, exclude_min=True))
    def test_scale_invariant_over_the_float_range(self, e, sign, p):
        # the gaussian's tails reach 1e-175, so c^p f^p leaves the normal
        # floats long before c f does
        f = make_field(Grid(2, 64, 16.0), "gaussian")
        c = sign * 10.0 ** e
        assert abs(lp_norm(f * c, p) - abs(c) * lp_norm(f, p)) <= 1e-13 * abs(c) * lp_norm(f, p)

    def test_tails_take_no_subnormal_power(self):
        # the norm_suite fields of the benchmark: a power that underflows
        # takes libm's subnormal slow path, ten times slower
        g = Grid(2, 256, 16.0)
        fields = [make_field(g, spec) for spec in (
            "gaussian",
            {"name": "bump", "params": {"radius": 2.0, "center": [0.5, 0.0]}},
            {"product": [{"name": "gaussian", "params": {"width": 1.5}},
                         {"name": "coordinate", "params": {"axis": 0}}]})]
        with np.errstate(under="raise", over="raise"):
            for f in fields:
                assert all(n > 0 for n in lp_norms(f, (1.5, 2.0, 4.0)).values())
                for p in (1.5, 2.0, 4.0):
                    assert lp_norm(f, p) > 0

    def test_lp_norms_match_one_at_a_time(self, grid):
        f = random_field(grid, seed=3)
        norms = lp_norms(f, (1.5, 2.0, 4.0))
        assert norms == {p: lp_norm(f, p) for p in (1.5, 2.0, 4.0)}
        assert lp_norms(f * 0.0, (2.0, 3.0)) == {2.0: 0.0, 3.0: 0.0}


class TestPairing:
    def test_self_pairing_is_norm(self, grid):
        f = random_smooth(grid, seed=5)
        val = pairing(f, f)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-12)

    def test_orthogonal_plane_waves(self, grid):
        u = plane_wave(grid, (2, 1))
        v = plane_wave(grid, (3, 1))
        assert abs(pairing(u, v)) < 1e-10 * grid.L**2

    def test_plane_wave_self(self, grid):
        u = plane_wave(grid, (4, -2))
        assert pairing(u, u) == pytest.approx(grid.L**2)

    def test_conjugate_symmetry(self, grid):
        u = random_smooth(grid, seed=7)
        v = random_smooth(grid, seed=8)
        assert pairing(u, v) == pytest.approx(np.conj(pairing(v, u)))

    def test_grid_mismatch(self, grid):
        other = Grid(2, 64, 16.0)
        u = grid.sample(lambda x, y: np.ones_like(x))
        v = other.sample(lambda x, y: np.ones_like(x))
        with pytest.raises(ValueError):
            pairing(u, v)

    def test_parseval(self, grid):
        u = random_smooth(grid, seed=11)
        v = random_smooth(grid, seed=12)
        lhs = pairing(u, v)
        uh, vh = dft(u), dft(v)
        rhs = np.sum(uh * np.conj(vh)) / grid.L**2
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))

    def test_independent_of_blas_threads(self):
        """Fixed pairs of random 256^2 fields, complex x complex and real x
        complex both ways, pair to the same bits with 1 and 2 BLAS threads:
        artifacts must not depend on the machine's thread count."""
        script = (
            "import numpy as np\n"
            "from hdist.grid import Grid, GridFunction, pairing\n"
            "grid = Grid(2, 256, 16.0)\n"
            "rng = np.random.default_rng(2016)\n"
            "u, v = (GridFunction(grid, rng.normal(size=grid.shape)"
            " + 1j * rng.normal(size=grid.shape)) for _ in range(2))\n"
            "r = GridFunction(grid, rng.normal(size=grid.shape))\n"
            "print(repr([pairing(u, v), pairing(r, v), pairing(u, r)]))\n"
        )
        src = str(Path(hdist.__file__).resolve().parents[1])
        reprs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            reprs.append(proc.stdout.strip())
        assert reprs[0] == reprs[1]


class TestRoundTrip:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(grids(), st.integers(0, 2**16))
    def test_idft_inverts_dft(self, grid, seed):
        f = random_field(grid, seed)
        back = idft(grid, dft(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * linf_norm(f)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from([8, 16, 32]),
           st.floats(0.5, 50.0), st.sampled_from(["float", "complex"]),
           st.integers(0, 2**16))
    def test_round_trips_match_idft_of_dft(self, d, N, L, kind, seed):
        # every multiplier norm_table builds: d^alpha for |alpha| <= 2, and
        # J_{-k} d^(k,0,...) as one array, each as its Hermitian part.  A real
        # field's image on the half lattice is the real part of its image
        # under the plain multiplier; a complex field's image is the images of
        # its real and imaginary parts
        grid = Grid(d, N, L)
        f = GridFunction(grid, sampler(kind, seed)(*grid.x_axes))
        ms = [derivative_op(grid, a).m for a in multi_indices(d, 2)]
        ms += [bessel_potential(grid, -float(k)).m * derivative_op(grid, e).m
               for k, e in [(1, (1,) + (0,) * (d - 1)), (2, (2,) + (0,) * (d - 1))]]
        images = list(round_trips(f, [hermitian_part(m) for m in ms]))
        assert len(images) == len(ms)
        for m, got in zip(ms, images):
            full = idft(grid, m * dft(f)).values
            scale = np.max(np.abs(full))
            if kind == "float":
                assert got.values.dtype == np.float64
                assert np.max(np.abs(got.values - full.real)) <= 1e-14 * scale
            else:
                [re], [im] = (round_trips(GridFunction(grid, part), [hermitian_part(m)])
                              for part in (f.values.real, f.values.imag))
                parts = re.values + 1j * im.values
                assert np.max(np.abs(got.values - parts)) <= 1e-14 * scale


def reference_dft(f):
    """np.fft with the documented convention spelled out: cell volume times
    exp(-2 pi i x_0 . xi_m) times the FFT sum, x_0 = -L/2 on every axis."""
    g = f.grid
    shift = [np.exp(-2j * np.pi * g.axis_x[0] * xi) for xi in g.xi_axes]
    return g.cell_volume * functools.reduce(operator.mul, shift) * np.fft.fftn(f.values)


class TestTransformSeam:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from([8, 16, 32]),
           st.floats(0.5, 50.0), st.integers(0, 2**16))
    def test_round_trip_parseval_and_reference(self, d, N, L, seed):
        grid = Grid(d, N, L)
        f, g = random_field(grid, seed), random_field(grid, seed + 1)
        fh, gh = dft(f), dft(g)
        assert np.max(np.abs(idft(grid, fh).values - f.values)) <= 1e-13 * linf_norm(f)
        scale = lp_norm(f, 2) * lp_norm(g, 2)
        parseval = np.sum(fh * np.conj(gh)) / L**d
        assert abs(pairing(f, g) - parseval) <= 1e-13 * scale
        ref = reference_dft(f)
        assert np.max(np.abs(fh - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestPaddedBuffer:
    """Full-lattice transforms run in place in an N^d complex view of a buffer
    padded to N + 1 on its last axis, a real field cast to complex128 on the
    copy into it: the same bits as the contiguous complex call, with no
    power-of-two byte stride on any axis."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from([(2, 8), (2, 16), (2, 32), (2, 64), (3, 8), (3, 16), (3, 32)]),
           st.floats(0.5, 50.0), st.integers(0, 2**16))
    def test_bits_match_the_contiguous_transform(self, dn, L, seed):
        grid = Grid(*dn, L)
        f = random_field(grid, seed)
        r = GridFunction(grid, f.values.imag.copy())  # real white noise
        s = random_field(grid, seed + 1).values.copy()
        f_before, r_before, s_before = f.values.copy(), r.values.copy(), s.copy()
        assert np.array_equal(dft(f), np.fft.fftn(f.values) * grid._forward_phase)
        assert np.array_equal(dft(r), np.fft.fftn(r.values.astype(np.complex128))
                              * grid._forward_phase)
        g = idft(grid, s)
        assert np.array_equal(g.values, np.fft.ifftn(s * grid._inverse_phase, norm="forward"))
        assert np.array_equal(f.values, f_before) and np.array_equal(s, s_before)
        assert np.array_equal(r.values, r_before) and r.values.dtype == np.float64
        assert not g.values.flags.writeable

    @pytest.mark.parametrize("d, N", [(3, 64), (2, 256)])
    def test_no_power_of_two_stride_and_no_copy(self, d, N, monkeypatch):
        calls = []

        def recording(fn):
            def wrapped(x, *args, **kwargs):
                out = fn(x, *args, **kwargs)
                calls.append((x, out))
                return out
            return wrapped

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
        grid = Grid(d, N, 8.0)
        f_hat = dft(random_field(grid, 0))
        g = idft(grid, f_hat)
        r_hat = dft(GridFunction(grid, random_field(grid, 1).values.real.copy()))
        assert len(calls) == 3
        for x, out in calls:
            assert x.dtype == np.complex128
            bad = [s for s in x.strides if abs(s) >= 4096 and abs(s) & (abs(s) - 1) == 0]
            assert not bad, f"power-of-two byte strides {bad} in {x.strides}"
            assert np.shares_memory(out, x)
        assert np.shares_memory(calls[0][0], f_hat)
        assert np.shares_memory(calls[1][0], g.values)
        assert np.shares_memory(calls[2][0], r_hat)


class TestImages:
    """Round trips from the phase-free spectrum: image(m, F) and a complex
    field's round_trips are idft(m dft(f)), and adjoint_image(m, conj(F)) is
    conj(idft(conj(m) dft(f))), bitwise where L/N and L are powers of two and
    to rounding otherwise."""

    @pytest.mark.parametrize("L", [16.0, 12.0])
    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_images_match_the_dft_round_trip(self, L, kind):
        grid = Grid(2, 64, L)
        f = random_field(grid, 0)
        rng = np.random.default_rng(1)
        m = rng.normal(size=grid.shape)
        if kind == "complex":
            m = m + 1j * rng.normal(size=grid.shape)
        f_spec = spectrum(f)
        f_spec_conj = np.conj(f_spec)
        pairs = [(image(m, f_spec), idft(grid, m * dft(f)).values),
                 (adjoint_image(m, f_spec_conj),
                  np.conj(idft(grid, np.conj(m) * dft(f)).values)),
                 (next(round_trips(f, [m])).values, idft(grid, m * dft(f)).values)]
        for got, want in pairs:
            if L == 16.0:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # the spectrum is dft's without its cell_volume (-1)^m; f_spec is intact
        assert np.array_equal(f_spec * grid._forward_phase, dft(f))
        assert np.array_equal(f_spec_conj, np.conj(spectrum(f)))

    def test_images_run_in_padded_buffers(self, monkeypatch):
        calls = []

        def recording(fn):
            def wrapped(x, *args, **kwargs):
                calls.append(x)
                return fn(x, *args, **kwargs)
            return wrapped

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
        grid = Grid(2, 256, 8.0)
        f_spec = spectrum(random_field(grid, 0))
        m = random_field(grid, 1).values
        outs = [f_spec, image(m, f_spec), adjoint_image(m, f_spec)]
        assert len(calls) == 3
        for x, out in zip(calls, outs):
            assert x.strides == (257 * 16, 16) and np.shares_memory(x, out)


def test_only_grid_enters_numpy_fft():
    """grid.py is the one module that names numpy.fft, so a wrapper installed
    there (the benchmark's transform count, a test counter) sees every
    transform the package takes."""
    src = Path(hdist.__file__).parent
    entering = sorted(path.name for path in src.rglob("*.py")
                      if any(token in path.read_text()
                             for token in ("np.fft", "numpy.fft", "scipy.fft", "pocketfft",
                                           "from numpy import fft")))
    assert entering == ["grid.py"]
