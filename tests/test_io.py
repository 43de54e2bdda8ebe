"""On-disk formats: CSV schemas, binary checkpoints, manifests."""

import csv
import hashlib
import json
import struct

import numpy as np
import pytest

from gaugewalk import io as gio
from gaugewalk import lattice as lat
from gaugewalk import walker as wk


def make_state(seed=0, dim=2, p_max=4, eps=0.1):
    spec = lat.LatticeSpec(eps, p_max, 6)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((spec.n_sites, 2 * dim)) + 1j * rng.standard_normal((spec.n_sites, 2 * dim))
    amps /= np.linalg.norm(amps)
    return wk.WalkState(spec, dim, 3, amps)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        state = make_state()
        path = tmp_path / "s.ckpt"
        gio.write_checkpoint(path, state)
        back = gio.read_checkpoint(path)
        assert back.dim == state.dim
        assert back.j == state.j
        assert back.spec.epsilon == state.spec.epsilon
        assert back.spec.p_max == state.spec.p_max
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_file_is_compact(self, tmp_path):
        state = make_state()
        path = tmp_path / "s.ckpt"
        gio.write_checkpoint(path, state)
        expected = 4 + 4 + 4 + 8 + state.amplitudes.size * 16
        assert path.stat().st_size == expected

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        spec = lat.LatticeSpec(0.1, 6, 24)
        field = lat.GaugeField.random(spec, 2, seed=4, scale=0.6)
        config = wk.WalkConfig(2, 0.3)
        rng = np.random.default_rng(5)
        amps = rng.standard_normal((spec.n_sites, 4)) + 1j * rng.standard_normal((spec.n_sites, 4))
        start = wk.WalkState(spec, 2, 0, amps / np.linalg.norm(amps))
        path = tmp_path / "mid.ckpt"
        gio.write_checkpoint(path, wk.evolve(start, field, config, 10))
        resumed = wk.evolve(gio.read_checkpoint(path), field, config, 10)
        straight = wk.evolve(start, field, config, 20)
        assert resumed.j == straight.j == 20
        assert np.array_equal(resumed.amplitudes, straight.amplitudes)

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "s.ckpt"
        gio.write_checkpoint(path, make_state())
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            gio.read_checkpoint(path)
        path.write_bytes(data[:12])
        with pytest.raises(ValueError, match="truncated"):
            gio.read_checkpoint(path)


    @pytest.mark.parametrize("field, value", [("epsilon", float("nan")), ("epsilon", float("inf")),
                                              ("epsilon", 0.0), ("j", -5), ("p_max", 1)])
    def test_corrupt_header_refused_before_any_state(self, tmp_path, monkeypatch, field, value):
        header = {"dim": 2, "p_max": 4, "j": 3, "epsilon": 0.1}
        header[field] = value
        # a payload of the size the header promises, so only the value is wrong
        payload = np.ones((2 * header["p_max"] + 1, 4), dtype="<c16").tobytes()
        path = tmp_path / "s.ckpt"
        path.write_bytes(struct.pack("<iiid", header["dim"], header["p_max"], header["j"],
                                     header["epsilon"]) + payload)

        def built(*args, **kwargs):
            raise AssertionError("a state was built from a corrupt header")

        monkeypatch.setattr(gio, "LatticeSpec", built)
        monkeypatch.setattr(gio, "WalkState", built)
        with pytest.raises(ValueError, match=f"^corrupt checkpoint {path}: header"):
            gio.read_checkpoint(path)


    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_names_the_file(self, tmp_path, value):
        path = tmp_path / "s.ckpt"
        gio.write_checkpoint(path, make_state())
        data = bytearray(path.read_bytes())
        # the imaginary part of the last amplitude
        data[-8:] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"^corrupt checkpoint {path}: non-finite amplitudes$"):
            gio.read_checkpoint(path)


class TestStateCsv:
    def test_schema_and_probability_column(self, tmp_path):
        state = make_state()
        path = tmp_path / "state.csv"
        gio.write_state_csv(path, state.spec.positions(), state.amplitudes, "walk")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == state.spec.n_sites
        assert rows[0]["origin"] == "walk"
        mid = rows[state.spec.p_max]
        assert int(mid["p"]) == 0
        assert float(mid["x_p"]) == 0.0
        probs = state.site_probabilities()
        for i, row in enumerate(rows):
            assert float(row["prob"]) == pytest.approx(probs[i], abs=1e-15)
            re0 = float(row["re_0"])
            im0 = float(row["im_0"])
            assert complex(re0, im0) == state.amplitudes[i, 0]

    @pytest.mark.parametrize("origin", ["walk", "dirac"])
    def test_bytes_equal_a_csv_writer_reference(self, tmp_path, origin):
        values = np.array([[-0.0 + 5e-324j, 1e300 - 1.5j],
                           [0.1 - 0.0j, -2.5e-10 + 1e-300j],
                           [1 / 3 + 2j / 3, -1e300 + 7j]])
        positions = np.array([-0.0, 5e-324, 1e300])
        want = tmp_path / "want.csv"
        with open(want, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "x_p", "re_0", "im_0", "re_1", "im_1", "prob", "origin"])
            for p, x, row, prob in zip((-1, 0, 1), positions, values, wk.row_probabilities(values)):
                parts = [float(v) for z in row for v in (z.real, z.imag)]
                w.writerow([p, repr(float(x)), *map(repr, parts), repr(float(prob)), origin])
        got = tmp_path / "got.csv"
        gio.write_state_csv(got, positions, values, origin)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("count", [5, 16, 18])
    def test_refuses_positions_that_do_not_match_the_rows(self, tmp_path, count):
        values = np.ones((17, 4), dtype=complex)
        path = tmp_path / "state.csv"
        with pytest.raises(ValueError, match=rf"^positions have shape \({count},\), expected \(17,\) for 17 rows$"):
            gio.write_state_csv(path, np.arange(count, dtype=float), values, "walk")
        assert not path.exists()

    def test_refuses_an_unknown_origin(self, tmp_path):
        state = make_state()
        with pytest.raises(ValueError, match="origin must be"):
            gio.write_state_csv(tmp_path / "state.csv", state.spec.positions(), state.amplitudes, "other")


class TestGaugeCsv:
    def test_gauge_field_rows(self, tmp_path):
        spec = lat.LatticeSpec(0.1, 3, 4)
        field = lat.GaugeField.random(spec, 2, seed=1)
        path = tmp_path / "field.csv"
        gio.write_gauge_field_csv(path, field, j_range=range(2))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * spec.n_sites
        r = rows[0]
        assert (int(r["j"]), int(r["p"])) == (0, -3)
        assert float(r["re_P00"]) == pytest.approx(field.P(0)[0, 0, 0].real)

    def test_curvature_rows(self, tmp_path):
        spec = lat.LatticeSpec(0.1, 3, 4)
        field = lat.GaugeField.identity(spec, 2)
        path = tmp_path / "curv.csv"
        gio.write_curvature_csv(path, field)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == (spec.j_max - 1) * spec.n_sites
        assert float(rows[0]["re_F00"]) == pytest.approx(1.0)
        assert float(rows[0]["im_F01"]) == pytest.approx(0.0)


class TestTabularCsv:
    def test_convergence(self, tmp_path):
        path = tmp_path / "conv.csv"
        gio.write_convergence_csv(path, [0.2, 0.1], [0.3, 0.15], [0.4, 0.2],
                                  [float("nan"), 1.0])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["epsilon"]) == 0.2
        assert rows[0]["slope_running"] == ""  # nan renders as empty
        assert float(rows[1]["slope_running"]) == 1.0

    def test_trajectory(self, tmp_path):
        path = tmp_path / "traj.csv"
        gio.write_trajectory_csv(path, [0.0, 0.1], [0.0, -0.01], [0.0, -0.012], 0.05)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["E_ym"]) for r in rows] == [0.05, 0.05]
        assert float(rows[1]["xbar_walk"]) == -0.01


class TestManifest:
    def test_checksums_match(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("x,y\n1,2\n")
        path = gio.write_manifest(tmp_path, {"seed": 3}, [a])
        manifest = json.loads(path.read_text())
        assert manifest["config"] == {"seed": 3}
        want = hashlib.sha256(a.read_bytes()).hexdigest()
        assert manifest["artifacts"]["a.csv"] == want
        assert gio.sha256_file(a) == want

    def test_json_layout(self, tmp_path):
        # reports and manifests keep one byte layout: two-space indent, a
        # final newline, keys sorted only where asked
        data = {"b": [1.5, 2], "a": {"passed": True}}
        path = gio.write_json(tmp_path / "r.json", data)
        assert path.read_text() == json.dumps(data, indent=2) + "\n"
        manifest = gio.write_manifest(tmp_path, {"z": 1, "a": 2}, [path]).read_text()
        assert manifest == json.dumps(json.loads(manifest), indent=2, sort_keys=True) + "\n"
        assert manifest.index('"artifacts"') < manifest.index('"config"')
