"""Matrix-algebra layer: generator bases, exponential map, U(1) x SU(N) split."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugewalk import unitary as un
from references import random_unitary, su2_closed_form


def coords_strategy(count, bound=3.0):
    return st.lists(
        st.floats(-bound, bound, allow_nan=False, allow_infinity=False),
        min_size=count, max_size=count,
    ).map(np.array)


class TestPauli:
    def test_products(self):
        s1, s2, s3 = un.PAULI
        assert np.allclose(s1 @ s2, 1j * s3)
        assert np.allclose(s2 @ s3, 1j * s1)
        assert np.allclose(s3 @ s1, 1j * s2)
        for s in un.PAULI:
            assert np.allclose(s @ s, np.eye(2))


class TestGellMann:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count_traceless_orthogonal(self, n):
        gens = un.gell_mann(n)
        assert gens.shape == (n * n - 1, n, n)
        for g in gens:
            assert abs(np.trace(g)) < 1e-14
            assert np.allclose(g, g.conj().T)
        gram = np.einsum("aij,bji->ab", gens, gens)
        assert np.allclose(gram, 2 * np.eye(n * n - 1), atol=1e-13)

    def test_n2_is_pauli(self):
        gens = un.gell_mann(2)
        for got, want in zip(gens, un.PAULI):
            assert np.allclose(got, want)

    def test_bad_dim_raises(self):
        with pytest.raises(un.DimensionError):
            un.gell_mann(0)


class TestGeneratorSets:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_u_basis(self, n):
        gens = un.generators_u(n)
        assert len(gens) == n * n
        assert np.allclose(gens.gens[0], np.eye(n))

    def test_su_basis(self):
        gens = un.generators_su(3)
        assert len(gens) == 8
        for g in gens.gens:
            assert abs(np.trace(g)) < 1e-14
        with pytest.raises(un.DimensionError):
            un.generators_su(1)

    def test_rejects_non_hermitian(self):
        bad = np.array([[[0, 1], [0, 0]]], dtype=complex)
        with pytest.raises(ValueError):
            un.GeneratorSet(2, bad)

    def test_rejects_dependent(self):
        s1 = un.PAULI[0]
        with pytest.raises(ValueError):
            un.GeneratorSet(2, np.array([s1, 2 * s1]))

    def test_assemble_shape_check(self):
        gens = un.generators_u(2)
        with pytest.raises(un.DimensionError):
            gens.assemble(np.zeros(3))


class TestExpMap:
    def test_zero_is_identity(self):
        gens = un.generators_u(3)
        assert np.allclose(un.exp_map(np.zeros(9), gens), np.eye(3))

    def test_scalar_phase(self):
        gens = un.generators_u(1)
        m = un.exp_map(np.array([np.pi / 2]), gens)
        assert np.allclose(m, [[1j]])

    def test_pi_sigma1(self):
        # exp(i * pi * sigma_1 / 2) * ... coordinate 2*pi on sigma_1/2 gives -1
        gens = un.generators_u(2)
        m = un.exp_map(np.array([0.0, 2 * np.pi, 0.0, 0.0]), gens)
        assert np.allclose(m, -np.eye(2), atol=1e-12)

    def test_batched(self):
        gens = un.generators_u(2)
        rng = np.random.default_rng(1)
        coords = rng.standard_normal((5, 4))
        batch = un.exp_map(coords, gens)
        for i in range(5):
            assert np.allclose(batch[i], un.exp_map(coords[i], gens))

    def test_nonfinite_raises(self):
        gens = un.generators_u(2)
        with pytest.raises(ValueError):
            un.exp_map(np.array([np.nan, 0, 0, 0]), gens)

    @settings(max_examples=60, deadline=None)
    @given(coords_strategy(4))
    def test_unitary_and_inverse(self, coords):
        gens = un.generators_u(2)
        m = un.exp_map(coords, gens)
        assert un.unitarity_defect(m) <= 1e-12
        assert np.max(np.abs(m @ un.exp_map(-coords, gens) - np.eye(2))) <= 1e-11

    @settings(max_examples=80, deadline=None)
    @given(coords_strategy(3, bound=10.0))
    def test_matches_su2_closed_form(self, v):
        gens = un.generators_su(2)
        assert np.max(np.abs(un.exp_map(v, gens) - su2_closed_form(v))) <= 1e-12

    def test_su2_closed_form_zero(self):
        assert np.allclose(su2_closed_form(np.zeros(3)), np.eye(2))


class TestFactorize:
    def test_identity(self):
        res = un.factorize(np.eye(3))
        assert res.delta == pytest.approx(1.0)
        assert np.allclose(res.special, np.eye(3))
        assert not res.branch_discontinuous

    def test_pure_phase(self):
        m = np.exp(0.4j) * np.eye(2)
        res = un.factorize(m)
        # det = e^{0.8i}; delta = e^{0.4i}
        assert res.delta == pytest.approx(np.exp(0.4j))
        assert np.allclose(res.special, np.eye(2))

    def test_special_input_passthrough(self):
        m = su2_closed_form(np.array([0.3, -1.1, 0.6]))
        res = un.factorize(m)
        assert res.delta == pytest.approx(1.0)
        assert np.allclose(res.special, m)

    def test_branch_flag(self):
        res = un.factorize(np.diag([1.0, -1.0]).astype(complex))
        assert res.branch_discontinuous

    def test_rejects_non_unitary(self):
        with pytest.raises(un.UnitarityError):
            un.factorize(2 * np.eye(2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_recombination_and_det(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3):
            m = random_unitary(n, rng)
            res = un.factorize(m)
            assert np.max(np.abs(res.delta * res.special - m)) <= 1e-10
            assert abs(np.linalg.det(res.special) - 1) <= 1e-10
            assert abs(abs(res.delta) - 1) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000))
    def test_stack_matches_single_matrices(self, n, seed):
        rng = np.random.default_rng(seed)
        stack = np.array([[random_unitary(n, rng) for _ in range(3)] for _ in range(2)])
        # det = -1 exactly, and det approaching -1 from below the cut
        stack[1, 2] = np.diag([-1.0] + [1.0] * (n - 1))
        stack[0, 1] = np.diag([np.exp(-1j * (np.pi - 1e-12))] + [1.0] * (n - 1))
        res = un.factorize(stack)
        assert res.delta.shape == res.branch_discontinuous.shape == (2, 3)
        assert res.special.shape == stack.shape
        for idx in np.ndindex(2, 3):
            one = un.factorize(stack[idx])
            assert isinstance(one.delta, complex) and isinstance(one.branch_discontinuous, bool)
            assert abs(res.delta[idx] - one.delta) <= 1e-15
            assert np.max(np.abs(res.special[idx] - one.special)) <= 1e-15
            assert res.branch_discontinuous[idx] == one.branch_discontinuous
        assert res.branch_discontinuous[1, 2] and res.branch_discontinuous[0, 1]

    def test_stack_rejects_any_non_unitary_matrix(self):
        stack = np.array([np.eye(2), 2 * np.eye(2)], dtype=complex)
        with pytest.raises(un.UnitarityError):
            un.factorize(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        one = np.diag([bad, 1.0]).astype(complex)
        with pytest.raises(un.UnitarityError):
            un.factorize(one)
        with pytest.raises(un.UnitarityError):
            un.factorize(np.array([np.eye(2), one]))


class TestUnitarityHelpers:
    def test_defect_values(self):
        assert un.unitarity_defect(np.eye(4)) == 0.0
        assert un.unitarity_defect(2 * np.eye(2)) == pytest.approx(3.0)

    def test_random_unitary(self):
        rng = np.random.default_rng(7)
        assert un.unitarity_defect(random_unitary(3, rng)) <= 1e-12


def einsum_assemble(coords, gens):
    return np.einsum("...k,kij->...ij", coords, gens.gens)


def einsum_exp_map(coords, gens):
    w, v = np.linalg.eigh(einsum_assemble(coords, gens))
    return np.einsum("...ik,...k,...jk->...ij", v, np.exp(1j * w), v.conj())


def longdouble_exp_2x2(coords, gens):
    """exp(iH) = e^{i a0} (cos r + i (sin r / r) K) for N = 2, in long double."""
    h = einsum_assemble(coords, gens).astype(np.clongdouble)
    a0 = (h[..., 0, 0] + h[..., 1, 1]).real / 2
    k = h - a0[..., None, None] * np.eye(2)
    r = np.sqrt(np.sum(np.abs(k) ** 2, axis=(-1, -2)) / 2)
    safe = np.where(r > 0, r, 1)
    sinc = np.where(r > 0, np.sin(safe) / safe, 1)
    m = np.cos(r)[..., None, None] * np.eye(2) + 1j * sinc[..., None, None] * k
    return (np.exp(1j * a0)[..., None, None] * m).astype(complex)


def eye_defect(m):
    return float(np.max(np.abs(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1]))))


class TestKernelsMatchReferences:
    """assemble, exp_map and unitarity_defect against the einsum and np.eye
    forms they replaced, on single, batched and stride-0 broadcast inputs."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000), st.sampled_from(["single", "batched", "broadcast"]),
           st.booleans(), st.sampled_from(["generic", "zero", "u1", "r=1e-9", "r=1e2"]))
    @example(2, 0, "batched", False, "zero")
    @example(2, 1, "batched", False, "u1")
    @example(2, 2, "batched", False, "r=1e-9")
    @example(2, 3, "batched", True, "r=1e-9")
    @example(2, 4, "batched", False, "r=1e2")
    @example(2, 5, "batched", True, "r=1e2")
    def test_assemble_and_exp_map(self, n, seed, layout, su, regime):
        # for N = 2 the regime sets r, the norm of the traceless part of H:
        # zero coordinates, only the U(1) direction (r = 0, a0 != 0), r near
        # 1e-9 or near 1e2
        gens = un.generators_su(n) if su and n > 1 and regime != "u1" else un.generators_u(n)
        rng = np.random.default_rng(seed)
        base = rng.normal(0, 2, ((2, 5) if layout == "batched" else ()) + (len(gens),))
        traceless = base[..., len(gens) - n * n + 1:]  # all but the identity direction, if any
        if regime in ("zero", "u1"):
            traceless[...] = 0
            if regime == "zero":
                base[...] = 0
        elif regime != "generic" and traceless.shape[-1]:
            # for the generators sigma_k / 2, r is half the coordinates' norm
            traceless *= 2 * float(regime[2:]) / np.linalg.norm(traceless, axis=-1, keepdims=True)
        coords = np.broadcast_to(base, (7, len(gens))) if layout == "broadcast" else base
        h = gens.assemble(coords)
        assert h.shape == coords.shape[:-1] + (n, n)
        assert np.max(np.abs(h - einsum_assemble(coords, gens))) <= 1e-13
        m = un.exp_map(coords, gens)
        assert m.shape == coords.shape[:-1] + (n, n)
        # the eigh reference's own rounding grows like r: at r = 1e2 it is off by
        # up to 1.3e-13 from the long-double value, the closed form by 2.4e-14
        assert np.max(np.abs(m - einsum_exp_map(coords, gens))) <= (2e-13 if regime == "r=1e2" else 1e-13)
        if n == 2:
            assert np.max(np.abs(m - longdouble_exp_2x2(coords, gens))) <= 1e-13
        assert un.unitarity_defect(m) <= 1e-13
        if regime == "zero" and n <= 2:
            assert np.array_equal(m, np.broadcast_to(np.eye(n), m.shape))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000), st.floats(0, 1e-3))
    def test_unitarity_defect(self, n, seed, noise):
        rng = np.random.default_rng(seed)
        stack = np.array([random_unitary(n, rng) for _ in range(5)])
        stack += noise * rng.standard_normal(stack.shape)
        kept = stack.copy()
        for m in (stack, stack[2], np.broadcast_to(stack[0], (6, n, n)), stack.real, 3 * stack):
            # the elementwise Gram sums in another order than BLAS: measured
            # <= 1.1e-16 apart near unitary and <= 3.6e-15 at a defect of ~8
            ref = eye_defect(m)
            assert abs(un.unitarity_defect(m) - ref) <= 1e-15 * max(1.0, ref)
        assert np.array_equal(stack, kept)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)],
                             ids=["nan", "inf", "-inf", "i-inf"])
    def test_non_finite_entry_fails_every_bound(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        assert not un.unitarity_defect(m) <= 1e300
        assert not un.unitarity_defect(np.array([np.eye(3), m])) <= 1e300

    def test_exp_map_bits_do_not_depend_on_batch_size(self):
        # N = 2: numpy may reuse a temporary of >= 256 KiB in place, which
        # swaps the factors of a product; no product may depend on that
        gens = un.generators_u(2)
        coords = np.random.default_rng(11).normal(0, 2, (65536, len(gens)))
        whole = un.exp_map(coords, gens)
        for size in (1, 17, 8192, 16384):
            starts = range(0, len(coords), size) if size > 17 else range(0, 4096, size)
            for start in starts:
                assert np.array_equal(un.exp_map(coords[start:start + size], gens), whole[start:start + size])

    def test_n3_exp_map_bits_do_not_depend_on_batch_size(self):
        # a single matrix is left out: assemble's BLAS product of one row of
        # coordinates may round differently from a stack's
        gens = un.generators_u(3)
        coords = np.random.default_rng(12).normal(0, 2, (65536, len(gens)))
        whole = un.exp_map(coords, gens)
        for size in (17, 544, 1088, 4096, 8192, 16384):
            starts = range(0, len(coords), size) if size > 1088 else range(0, 8192, size)
            for start in starts:
                assert np.array_equal(un.exp_map(coords[start:start + size], gens), whole[start:start + size])


class TestStackMatmul:
    """stack_matmul, the elementwise form of a @ b for stacks of small matrices."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000), st.sampled_from(["single", "stack", "stride0", "broadcast"]))
    def test_agrees_with_matmul(self, n, seed, layout):
        rng = np.random.default_rng(seed)
        draw = lambda *shape: rng.uniform(-1, 1, shape + (n, n)) + 1j * rng.uniform(-1, 1, shape + (n, n))
        a, b = {
            "single": lambda: (draw(), draw()),
            "stack": lambda: (draw(6, 5), draw(6, 5)),
            "stride0": lambda: (np.broadcast_to(draw(), (7, n, n)), draw(7)),
            "broadcast": lambda: (draw(3, 1), draw(4)),  # leading dims (3, 1) and (4,) give (3, 4)
        }[layout]()
        out = un.stack_matmul(a, b)
        assert out.shape == (a @ b).shape
        assert np.max(np.abs(out - a @ b)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_bits_do_not_depend_on_batch_size(self, n):
        rng = np.random.default_rng(n)
        a, b = (rng.normal(size=(16384, n, n)) + 1j * rng.normal(size=(16384, n, n)) for _ in range(2))
        whole = un.stack_matmul(a, b)
        for size in (1, 17, 544):
            for start in range(0, 2 * 544, size):
                assert np.array_equal(un.stack_matmul(a[start:start + size], b[start:start + size]),
                                      whole[start:start + size])


def longdouble_exp(h):
    """exp(iH) for a stack of H, by a Taylor series in long double after
    scaling H to norm <= 1/8, then squaring back."""
    h = np.asarray(h, dtype=np.clongdouble)
    norm = float(np.abs(h).sum(-1).max())
    s = max(0, int(np.ceil(np.log2(norm))) + 3) if norm > 0 else 0
    a = 1j * h / np.longdouble(2) ** s
    term = np.broadcast_to(np.eye(h.shape[-1], dtype=np.clongdouble), h.shape).copy()
    out = term.copy()
    for k in range(1, 25):
        term = term @ a / k
        out += term
    for _ in range(s):
        out = out @ out
    return out.astype(complex)


class TestExp3x3HardRegimes:
    """The N = 3 closed form where it is hardest: coinciding or clustered
    eigenvalues, either side of the limit formula (q1 = q3, reached once
    tr Q^2 underflows), tiny and large r, against a long-double Taylor
    reference and the eigh one."""

    # eigenvalues of the traceless part (random when None), scaled to a
    # largest |eigenvalue| r
    REGIMES = {
        "zero traceless part": ((0, 0, 0), 1.0),
        "pair at +c0max": ((2, -1, -1), 0.7),
        "pair at -c0max": ((1, 1, -2), 0.7),
        "pair at +c0max, r=1e2": ((2, -1, -1), 1e2),
        "pair at -c0max, r=1e2": ((1, 1, -2), 1e2),
        "three within 1e-5": ((0.6, -0.1, -0.5), 1e-5),
        "three within 1e-7": ((0.6, -0.1, -0.5), 1e-7),
        "three within 1e-9": ((0.6, -0.1, -0.5), 1e-9),
        "limit formula: tr Q^2 underflows to 0": ((0.6, -0.1, -0.5), 1e-170),
        "quotient: tr Q^2 subnormal": ((0.6, -0.1, -0.5), 1e-160),
        "quotient: tr Q^2 normal": ((0.6, -0.1, -0.5), 1e-150),
        "r=1e-9": (None, 1e-9),
        "r=1e2": (None, 1e2),
    }

    @pytest.mark.parametrize("su", [False, True], ids=["u3", "su3"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_matches_long_double_and_eigh(self, regime, su):
        gens = un.generators_su(3) if su else un.generators_u(3)
        spectrum, scale = self.REGIMES[regime]
        rng = np.random.default_rng(sum(map(ord, regime)) + su)
        norms = np.einsum("kij,kji->k", gens.gens, gens.gens).real
        coords = []
        for _ in range(24):
            lam = rng.standard_normal(3) if spectrum is None else np.array(spectrum, dtype=float)
            lam = (lam - lam.mean()) * scale / np.abs(lam - lam.mean()).max(initial=1e-300)
            v = random_unitary(3, rng)
            h = v @ np.diag(lam) @ v.conj().T + (0 if su else rng.normal()) * np.eye(3)
            # the generators are Hilbert-Schmidt orthogonal: X^k = tr(tau_k H) / tr(tau_k^2)
            coords.append(np.einsum("kij,ji->k", gens.gens, h).real / norms)
        coords = np.array(coords)
        m = un.exp_map(coords, gens)
        # eigh's own rounding grows like r (see test_assemble_and_exp_map)
        bound = 2e-13 if scale == 1e2 else 1e-13
        h = np.einsum("...k,kij->...ij", coords.astype(np.longdouble), gens.gens.astype(np.clongdouble))
        assert np.max(np.abs(m - longdouble_exp(h))) <= bound
        assert np.max(np.abs(m - einsum_exp_map(coords, gens))) <= bound
        assert un.unitarity_defect(m) <= 1e-13
        if regime == "zero traceless part" and su:
            assert np.array_equal(m, np.broadcast_to(np.eye(3), m.shape))

    def test_long_double_reference_matches_the_su2_closed_form(self):
        v = np.random.default_rng(4).normal(0, 3, (6, 3))
        h = np.einsum("...k,kij->...ij", v, un.generators_su(2).gens)
        want = np.array([su2_closed_form(row) for row in v])
        assert np.max(np.abs(longdouble_exp(h) - want)) <= 1e-14


class TestExpMapOnePath:
    """exp_map has one code path per N for every batch size: the closed
    forms for N <= 3 never reach eigh, and N = 4 does."""

    @pytest.mark.parametrize("batch", [1, 17, 1088])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_forms_never_call_eigh(self, monkeypatch, n, batch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        gens = un.generators_u(n)
        coords = np.random.default_rng(batch).normal(0, 1, (batch, len(gens)))
        m = un.exp_map(coords, gens)
        assert m.shape == (batch, n, n)
        assert un.unitarity_defect(m) <= 1e-13

    def test_n4_goes_through_eigh(self, monkeypatch):
        shapes, eigh = [], np.linalg.eigh

        def recording(h):
            shapes.append(h.shape)
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        un.exp_map(np.zeros((5, 16)), un.generators_u(4))
        assert shapes == [(5, 4, 4)]

    def test_exp3_is_imported_by_the_first_n3_call_only(self):
        # every eagerly imported module is compiled at start-up where bytecode
        # is not cached, so exp3 must wait for the first N = 3 exponential
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import gaugewalk.cli
            from gaugewalk import unitary as un
            for n in (1, 2):
                un.exp_map(np.zeros((4, n * n)), un.generators_u(n))
            print("gaugewalk.exp3" in sys.modules)
            un.exp_map(np.zeros((4, 9)), un.generators_u(3))
            print("gaugewalk.exp3" in sys.modules)
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_n3_coordinate_count_checked(self):
        with pytest.raises(un.DimensionError, match="^expected 9 coordinates, got 8$"):
            un.exp_map(np.zeros(8), un.generators_u(3))
