from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchlab import cli, simulator, traffic
from switchlab.cli import ExperimentConfig, load_config, run_sweep
from switchlab.scheduling import Schedule
from switchlab.traffic import ArrivalModel
from switchlab import validate as validate_mod


def base_doc(tmp_path, **kw):
    doc = {
        "n": 2,
        "cost": {"preset": "ones"},
        "arrival": {"kind": "bernoulli", "nu": "uniform"},
        "epsilon_grid": [0.2, 0.1],
        "slots": 30_000,
        "warmup": 2_000,
        "replications": 2,
        "seed": 17,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(kw)
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -------- configuration --------

def test_config_round_trip(tmp_path):
    doc = base_doc(tmp_path, cost={"preset": "checker", "a": 1.0, "b": 2.0},
                   slots_by_epsilon={"0.2": 40000})
    cfg = ExperimentConfig.from_dict(doc)
    cfg2 = ExperimentConfig.from_dict(cfg.to_dict())
    assert cfg.to_dict() == cfg2.to_dict()
    assert cfg.config_hash() == cfg2.config_hash()
    assert cfg.slots_for(0.2) == 40000 and cfg.slots_for(0.1) == 30000
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 99  # the runs built from the config would keep the old seed


def test_readme_config_example_parses(tmp_path):
    # The documented schema must stay the one the parser accepts, key for key.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    doc["output_dir"] = str(tmp_path / "out")
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.to_dict().keys() == doc.keys()


def test_cost_presets(tmp_path):
    cfg = ExperimentConfig.from_dict(base_doc(tmp_path, cost={"preset": "checker", "a": 1, "b": 3}))
    assert cfg.cost.tolist() == [[1.0, 3.0], [3.0, 1.0]]
    r1 = ExperimentConfig.from_dict(base_doc(tmp_path, cost={"preset": "random", "seed": 9, "lo": 0.5, "hi": 2.0}))
    r2 = ExperimentConfig.from_dict(base_doc(tmp_path, cost={"preset": "random", "seed": 9, "lo": 0.5, "hi": 2.0}))
    assert np.array_equal(r1.cost, r2.cost)
    assert r1.cost.min() >= 0.5 and r1.cost.max() <= 2.0
    with pytest.raises(cli.ConfigError):
        ExperimentConfig.from_dict(base_doc(tmp_path, cost={"preset": "nope"}))


def test_config_validation(tmp_path):
    with pytest.raises(cli.ConfigError):
        ExperimentConfig.from_dict(base_doc(tmp_path, epsilon_grid=[1.5]))
    with pytest.raises(cli.ConfigError):
        ExperimentConfig.from_dict(base_doc(tmp_path, epsilon_grid=[-0.1]))
    with pytest.raises(cli.ConfigError):
        ExperimentConfig.from_dict(base_doc(tmp_path, n=1))
    with pytest.raises(cli.ConfigError):
        ExperimentConfig.from_dict(
            base_doc(tmp_path, arrival={"kind": "bernoulli", "nu": [[0.5, 0.4], [0.5, 0.6]]})
        )
    with pytest.raises(cli.ConfigError):
        ExperimentConfig.from_dict(base_doc(tmp_path, replications=0))
    # Batch count and limit variance are fixed, not settable.
    for key, value in (("batch_count", 30), ("sigma2", None)):
        with pytest.raises(cli.ConfigError, match=rf"unknown key\(s\) in the document: '{key}'"):
            ExperimentConfig.from_dict(base_doc(tmp_path, **{key: value}))


def test_config_size_is_the_cost_size():
    # n is read off the cost, so it cannot disagree with it; a nu of another
    # size fails the run's dimension check, as a config error.
    kw = dict(cost=np.ones((2, 2)), arrival_kind="bernoulli", a_max=1,
              epsilon_grid=[0.2], slots=1_000)
    cfg = ExperimentConfig(nu=np.full((2, 2), 0.5), **kw)
    assert cfg.n == 2 and cfg.to_dict()["n"] == 2
    with pytest.raises(cli.ConfigError, match="cost and arrival dimensions differ"):
        ExperimentConfig(nu=np.full((3, 3), 1 / 3), **kw)


@pytest.mark.parametrize("bad", [2.5, True, False, "30"], ids=repr)
@pytest.mark.parametrize(
    "where",
    ["n", "slots", "slots_by_epsilon", "warmup", "replications", "seed",
     "ssc_sampling_stride", "a_max", "cost seed"],
)
def test_integer_fields_reject_fractions_and_booleans(tmp_path, where, bad):
    doc = base_doc(tmp_path, cost={"preset": "random", "seed": 9},
                   arrival={"kind": "uniform-integer", "nu": "uniform", "a_max": 2},
                   slots_by_epsilon={"0.2": 40_000})
    if where == "slots_by_epsilon":
        doc[where] = {"0.2": bad}
    elif where == "a_max":
        doc["arrival"]["a_max"] = bad
    elif where == "cost seed":
        doc["cost"]["seed"] = bad
    else:
        doc[where] = bad
    with pytest.raises(cli.ConfigError, match="must be an integer"):
        ExperimentConfig.from_dict(doc)


def test_integral_floats_are_integers(tmp_path):
    doc = base_doc(tmp_path, n=2.0, slots=30_000.0, replications=2.0, seed=17.0,
                   slots_by_epsilon={"0.2": 4e4})
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.to_dict() == ExperimentConfig.from_dict(base_doc(
        tmp_path, slots_by_epsilon={"0.2": 40_000})).to_dict()
    assert type(cfg.n) is int and type(cfg.slots_for(0.2)) is int


@pytest.mark.parametrize(
    "change",
    [
        {"matcher": {"mode": "auto"}},
        {"arrival": {"kind": "weird", "nu": "uniform"}},
        {"arrival": {"kind": "bernoulli", "nu": [[1.0, 0.0], [0.0, 1.0]]}},
        {"batch_count": 10},
        {"sigma2": [[0.25]]},
        {"arrival": "bernoulli"},
        {"slots_by_epsilon": [1]},
        {"slotz": 5},
        {"arrival": {"kind": "bernoulli", "nu": "uniform", "rate": 0.5}},
        {"slots_by_epsilon": {"0.3": 100}},
        {"output_dir": 5},
        {"cost": {"preset": "checker", "A": 3}},
        {"cost": {"preset": "ones", "matrix": [[1.0, 1.0], [1.0, 1.0]]}},
        {"cost": {"matrix": [[1.0, 1.0], [1.0, 1.0]], "seed": 3}},
        {"cost": {"preset": "random", "seed": 1, "a": 2}},
        {"n": 2.7},
        {"slots": True},
        {"epsilon_grid": [0.3, 0.3]},
        {"epsilon_grid": ["0.3"]},
        {"epsilon_grid": [0.3, True]},
        {"slots_by_epsilon": {"0.2": 100, "0.20": 200}},
        {"seed": -1},
        {"n": 0},
        {"cost": {"preset": "checker", "a": "2", "b": True}},
        {"cost": {"preset": "random", "lo": "0.5"}},
        {"cost": {"preset": "random", "hi": True}},
        {"cost": {"preset": "random", "lo": -math.inf}},
        {"cost": {"preset": "random", "lo": -1e308, "hi": 1e308}},
        {"cost": {"matrix": [["2", 1], [1, True]]}},
        {"arrival": {"nu": [["0.5", 0.5], [0.5, "0.5"]]}},
        # The default warmup 20/eps^2 divides by zero, then overflows; 2**63
        # slots have no int64 slot index.
        {"epsilon_grid": [1e-300], "warmup": None},
        {"epsilon_grid": [1e-160], "warmup": None},
        {"slots": 1e300},
        {"slots_by_epsilon": {"0.1": 1e300}},
        {"warmup": 2**63},
    ],
    ids=["matcher-mode", "arrival-kind", "nu-zero-entry", "batch-count", "sigma2-shape",
         "arrival-not-object", "slots-by-epsilon-not-object", "unknown-key",
         "unknown-arrival-key", "slots-by-epsilon-off-grid", "output-dir-type",
         "cost-key-of-other-preset", "cost-matrix-and-preset", "cost-matrix-extra-key",
         "cost-random-with-checker-key",
         "n-fraction", "slots-bool", "epsilon-repeated", "epsilon-string", "epsilon-bool",
         "slots-by-epsilon-two-spellings", "seed-negative", "n-zero", "cost-checker-string-bool",
         "cost-random-lo-string", "cost-random-hi-bool", "cost-random-lo-infinite",
         "cost-random-range-overflows", "cost-matrix-string-bool", "nu-strings",
         "default-warmup-divides-by-zero", "default-warmup-overflows", "slots-huge",
         "slots-by-epsilon-huge", "warmup-huge"],
)
def test_cmd_sweep_bad_config_exits_before_workers(tmp_path, capsys, change):
    path = write_cfg(tmp_path, base_doc(tmp_path, **change))
    assert cli.main(["sweep", "--config", path, "--jobs", "2"]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, seed_in_doc",
    [("sweep", False), ("simulate", False), ("validate", False), ("zeta", True),
     ("lower-bound", True)],
)
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, seed_in_doc):
    # From --seed, or from the document for the commands without the flag.
    doc = base_doc(tmp_path, seed=-1 if seed_in_doc else 17)
    config = [] if command == "validate" else ["--config", write_cfg(tmp_path, doc)]
    flag = [] if seed_in_doc else ["--seed", "-1"]
    assert cli.main([command, *config, *flag]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


# Values of the wrong JSON type, and numbers out of range.  Floats
# stay small: an integral one is read as an integer, and n or slots of 1e5
# would build a 10^10-entry matrix or run for hours.
_JUNK = st.one_of(st.booleans(), st.floats(-3.0, 3.0),
                  st.sampled_from([math.nan, math.inf, -math.inf]),
                  st.text(max_size=2), st.lists(st.integers(-1, 2), max_size=2), st.just({}))


def _or_junk(strategy):
    return st.one_of(strategy, _JUNK)


_NUMBER = st.one_of(st.integers(-2, 4), st.floats(-1.0, 4.0))
_COST = st.one_of(
    st.fixed_dictionaries({"preset": st.sampled_from(["ones", "nope"])}),
    st.fixed_dictionaries({"preset": st.just("checker")},
                          optional={"a": _or_junk(_NUMBER), "b": _or_junk(_NUMBER)}),
    st.fixed_dictionaries({"preset": st.just("random")},
                          optional={"seed": _or_junk(st.integers(-2, 5)),
                                    "lo": _or_junk(_NUMBER), "hi": _or_junk(_NUMBER)}),
    st.fixed_dictionaries({"matrix": st.lists(st.lists(_NUMBER, min_size=1, max_size=3),
                                              min_size=1, max_size=3)}),
)
_ARRIVAL = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["bernoulli", "uniform-integer", "truncated-poisson", "x"]),
    "nu": st.sampled_from(["uniform", [[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]),
    "a_max": st.integers(-1, 4),
})


@st.composite
def _config_docs(draw):
    """A document near the schema, with up to two values replaced by junk.
    "slots" and "warmup" are always given: their defaults run 10^5 slots or
    more."""
    doc = draw(st.fixed_dictionaries(
        {
            "n": st.integers(2, 4),
            "epsilon_grid": st.lists(st.floats(0.01, 0.99) | st.floats(-0.5, 1.5),
                                     min_size=1, max_size=3),
            "slots": st.integers(30, 300),
            "warmup": st.integers(-5, 100),
        },
        optional={
            "cost": _COST,
            "arrival": _ARRIVAL,
            "slots_by_epsilon": st.dictionaries(st.sampled_from(["0.2", "0.5", "x"]),
                                                st.integers(-5, 300), max_size=2),
            "replications": st.integers(-1, 3),
            "seed": st.integers(-3, 3),
            "ssc_sampling_stride": st.integers(-1, 400),
            "output_dir": st.text(max_size=3),
        },
    ))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        doc[key] = draw(_JUNK)
    return doc


_SMALL = {"n": 2, "epsilon_grid": [0.2], "slots": 60, "warmup": 10}


@settings(max_examples=300, deadline=None)
@example(dict(_SMALL, seed=-1))
@example(dict(_SMALL, n=0))
@example({"n": 2, "epsilon_grid": [1e-300], "slots": 60})
@example({"n": 2, "epsilon_grid": [1e-160], "slots": 60})
@example(dict(_SMALL, slots=1e300))
@given(_config_docs())
def test_config_documents_are_refused_or_run(doc):
    # Every document either fails to parse with a ConfigError or runs.
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except cli.ConfigError:
        return
    stats = simulator.run(cfg.run_config(0))
    assert stats.measured_slots <= 300 and stats.conservation_ok


def test_load_config_missing(tmp_path):
    with pytest.raises(cli.ConfigError):
        load_config(str(tmp_path / "absent.json"))


@pytest.mark.parametrize(
    "command, extra",
    [("zeta", ["--seed", "99"]), ("lower-bound", ["--seed", "99"]), ("sweep", ["--verbose"]),
     ("lower-bound", ["--verbose"]), ("simulate", ["--verbose"]),
     ("validate", ["--config", "cfg.json"])],
    ids=["zeta-seed", "lower-bound-seed", "sweep-verbose", "lower-bound-verbose",
         "simulate-verbose", "validate-config"],
)
def test_unread_flags_are_usage_errors(tmp_path, capsys, command, extra):
    # A subcommand registers only the flags it reads; any other is refused.
    config = [] if command == "validate" else ["--config", write_cfg(tmp_path, base_doc(tmp_path))]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *config, *extra])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_cmd_sweep_jobs_below_one_exits_before_workers(tmp_path, capsys):
    path = write_cfg(tmp_path, base_doc(tmp_path))
    assert cli.main(["sweep", "--config", path, "--jobs", "0"]) == 1
    assert capsys.readouterr().err.startswith("config error: --jobs must be >= 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, where",
    [("sweep", "output_dir"), ("simulate", "output_dir"), ("simulate", "trace"),
     ("zeta", "output_dir"), ("lower-bound", "output_dir")],
)
def test_unwritable_output_paths_exit_before_any_work(tmp_path, capsys, monkeypatch, command, where):
    # An output_dir under a regular file, or a trace in a missing directory,
    # is a config error found before any run or analytics starts.
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if where == "output_dir" else tmp_path / "out"
    path = write_cfg(tmp_path, base_doc(tmp_path, output_dir=str(out)))
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(simulator, "run")
    count(cli.analytics, "cross_validated_zeta")
    count(cli.analytics, "universal_lower_bound")
    extra = ["--jobs", "1"] if command == "sweep" else []
    if where == "trace":
        extra = ["--trace", str(tmp_path / "missing" / "t.csv")]
    assert cli.main([command, "--config", path, *extra]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert calls == []


# -------- zeta command --------

def test_cmd_zeta_writes_expected_values(tmp_path, capsys):
    path = write_cfg(tmp_path, base_doc(tmp_path))
    rc = cli.main(["zeta", "--config", path])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "zeta.json").read_text())
    z = np.array(doc["zeta_projection"])
    assert np.allclose(z, 0.75, atol=1e-12)
    assert doc["cross_error"] < 1e-9
    assert doc["ht_limit"] == pytest.approx(0.75, abs=1e-12)
    assert doc["n2_closed_form"] == pytest.approx(0.375, abs=1e-12)
    assert doc["ht_limit_over_n2_closed_form"] == pytest.approx(2.0, abs=1e-9)


def test_cmd_zeta_n4_preset(tmp_path):
    path = write_cfg(tmp_path, base_doc(tmp_path, n=4))
    assert cli.main(["zeta", "--config", path]) == 0
    doc = json.loads((tmp_path / "out" / "zeta.json").read_text())
    assert np.allclose(np.array(doc["zeta_projection"]), 7 / 16, atol=1e-12)


def test_cmd_zeta_missing_config(tmp_path, capsys):
    rc = cli.main(["zeta", "--config", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_cmd_zeta_cross_error_exit_code(tmp_path, monkeypatch):
    import switchlab.analytics as analytics

    real = analytics.cross_validated_zeta

    def corrupted(cost):
        rep = real(cost)
        rep.cross_error = 1e-3
        return rep

    monkeypatch.setattr(cli.analytics, "cross_validated_zeta", corrupted)
    path = write_cfg(tmp_path, base_doc(tmp_path))
    assert cli.main(["zeta", "--config", path]) == 2


# -------- sweep command --------

def test_cmd_sweep_outputs(tmp_path):
    doc = base_doc(tmp_path, epsilon_grid=[0.3, 0.2, 0.1], slots=15_000, warmup=1_000)
    path = write_cfg(tmp_path, doc)
    assert cli.main(["sweep", "--config", path, "--jobs", "1"]) == 0
    csv = (tmp_path / "out" / "sweep.csv").read_text()
    header = csv.splitlines()[0].split(",")
    assert header == [
        "epsilon", "scaled_weighted_qsum", "stderr", "perp_norm_mean",
        "perp_norm2_mean", "unused_service_rate", "slots", "replications",
    ]
    assert len(csv.splitlines()) == 4
    assert csv.endswith("\n") and "\r" not in csv
    report = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert report["analytics"]["ht_limit"] == pytest.approx(0.75, abs=1e-12)
    assert report["config_hash"] == ExperimentConfig.from_dict(doc).config_hash()
    assert report["ssc"] is not None
    # unused-service identity holds on every row
    for row in report["rows"]:
        assert abs(row["unused_service_rate"] - 2 * row["epsilon"]) <= 5 * max(
            row["stderr_unused_service"], 1e-4
        )


def test_cmd_sweep_deterministic_and_jobs_invariant(tmp_path):
    doc = base_doc(tmp_path, epsilon_grid=[0.3, 0.15], slots=10_000, warmup=500)
    path = write_cfg(tmp_path, doc)
    assert cli.main(["sweep", "--config", path, "--jobs", "1"]) == 0
    first = (tmp_path / "out" / "sweep.csv").read_bytes()
    first_json = (tmp_path / "out" / "sweep.json").read_bytes()
    assert cli.main(["sweep", "--config", path, "--jobs", "2"]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == first
    assert (tmp_path / "out" / "sweep.json").read_bytes() == first_json


def test_cmd_sweep_builds_each_arrival_model_once(tmp_path, monkeypatch):
    # n = 3 so that analytic_block also runs the lower bound per epsilon
    built = []

    def counting_model(**kw):
        built.append(kw["epsilon"])
        return ArrivalModel(**kw)

    monkeypatch.setattr(cli, "ArrivalModel", counting_model)
    doc = base_doc(tmp_path, n=3, epsilon_grid=[0.3, 0.15], slots=2_000, warmup=200)
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--jobs", "1"]) == 0
    assert built == [0.3, 0.15]


def test_cmd_sweep_seed_override_changes_results(tmp_path):
    doc = base_doc(tmp_path, epsilon_grid=[0.3], slots=5_000, warmup=200, replications=1)
    path = write_cfg(tmp_path, doc)
    assert cli.main(["sweep", "--config", path, "--jobs", "1"]) == 0
    a = (tmp_path / "out" / "sweep.csv").read_text()
    assert cli.main(["sweep", "--config", path, "--jobs", "1", "--seed", "99"]) == 0
    b = (tmp_path / "out" / "sweep.csv").read_text()
    assert a != b


def _report_sha256(path: Path, keys) -> str:
    """sha256 of the sorted-key JSON of the entries ``keys`` of the report at ``path``."""
    doc = json.loads(path.read_text())
    return hashlib.sha256(json.dumps({k: doc[k] for k in keys}, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "doc, csv_sha256, json_sha256",
    [
        (dict(n=2, slots=2_000, warmup=300),
         "e6ee83207685d96b9710c0702f22690254c2ad7585ce4719a1099d93e944e4ec",
         "399d545c7feed7d562cb70bedfd6de73073e880997bd9f5758f7d53ff361bb69"),
        (dict(n=4, cost={"preset": "checker", "a": 1, "b": 2}, slots=1_200, warmup=200),
         "69d36855cd68da25e7812c49918c4f4c5ed629c7802471a45be7b0a61b08255d",
         "6b09fbd58328d7f99a6ba4adf352203cdedc0ed16e2cec24d8cda9f7e6a019cc"),
    ],
    ids=["n2-faces", "n4-checker-nnls"],
)
def test_cmd_sweep_outputs_pinned(tmp_path, doc, csv_sha256, json_sha256):
    # Bytes of sweep.csv and the computed blocks of sweep.json (config, which
    # holds the output directory, is left out) with SSC samples every 7th
    # slot: the perp and par columns rest on every projection and norm.
    doc = base_doc(tmp_path, epsilon_grid=[0.3, 0.2, 0.1], replications=2,
                   ssc_sampling_stride=7, **doc)
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, doc), "--jobs", "1"]) == 0
    out = tmp_path / "out"
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == csv_sha256
    assert _report_sha256(out / "sweep.json", ("rows", "analytics", "ssc")) == json_sha256


def test_seed_flag_matches_config_seed(tmp_path):
    # --seed is applied to the document before the config is built, so it
    # reaches every run exactly as a "seed" key would.
    doc = base_doc(tmp_path, epsilon_grid=[0.3, 0.2], slots=5_000, warmup=200, replications=1)
    files = ("sweep.csv", "sweep.json", "run.json")
    outputs = []
    for path, flag in (
        (write_cfg(tmp_path, doc), ["--seed", "99"]),
        (write_cfg(tmp_path, dict(doc, seed=99), "cfg99.json"), []),
    ):
        assert cli.main(["sweep", "--config", path, "--jobs", "1", *flag]) == 0
        assert cli.main(["simulate", "--config", path, *flag]) == 0
        outputs.append([(tmp_path / "out" / f).read_bytes() for f in files])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["seed"] == 99


def test_pooled_stderr_shrinks_with_replications(tmp_path):
    doc = base_doc(tmp_path, epsilon_grid=[0.2], slots=100_000, warmup=5_000,
                   replications=4)
    cfg = ExperimentConfig.from_dict(doc)
    by_eps = run_sweep(cfg, jobs=2)
    reps = by_eps[0.2]
    from switchlab.analytics import pool_runs

    pooled = pool_runs(reps)
    rms_single = float(np.sqrt(np.mean([r.stderr_weighted_qsum**2 for r in reps])))
    ratio = pooled["stderr_weighted_qsum"] / (rms_single / 2.0)
    assert 0.7 <= ratio <= 1.3


# -------- lower-bound command --------

def test_cmd_lower_bound(tmp_path):
    path = write_cfg(tmp_path, base_doc(tmp_path))
    assert cli.main(["lower-bound", "--config", path]) == 0
    doc = json.loads((tmp_path / "out" / "lb.json").read_text())
    assert doc["orderings_enumerated"] == 2
    eps_block = doc["by_epsilon"]["0.2"]
    assert len(eps_block["per_ordering"]) == 2
    assert eps_block["Qstar_eps"] == 0.0


def test_cmd_lower_bound_infeasible_n(tmp_path, capsys):
    path = write_cfg(tmp_path, base_doc(tmp_path, n=4))
    assert cli.main(["lower-bound", "--config", path]) == 3
    assert capsys.readouterr().err == (
        "infeasible request: n=4 requires (24)! = factorial(24) priority orderings; "
        "the enumeration is only feasible for n <= 3\n"
    )


# -------- simulate command --------

def test_cmd_simulate_with_trace(tmp_path):
    doc = base_doc(tmp_path, epsilon_grid=[0.3], slots=1_500, warmup=100)
    path = write_cfg(tmp_path, doc)
    trace = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--config", path, "--trace", str(trace)]) == 0
    run_doc = json.loads((tmp_path / "out" / "run.json").read_text())
    assert run_doc["conservation_ok"] is True
    assert run_doc["qu_dot_violation"] == 0.0
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,i,j,Q,A,S,U"
    rows = [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
    # replay the dump and check the slot identities exactly
    slots = {}
    for t, i, j, q, a, s, u in rows:
        slots.setdefault(t, {})[(i, j)] = (q, a, s, u)
    prev = {(i, j): 0 for i in range(2) for j in range(2)}
    for t in sorted(slots):
        cells = slots[t]
        srv = 0
        for key, (q, a, s, u) in cells.items():
            assert q == prev[key] + a - s + u
            assert q >= 0 and u <= s and (u == 0 or q == 0)
            srv += s
        assert srv == 2
        prev = {key: cells[key][0] for key in cells}


@pytest.mark.parametrize(
    "doc, sha256, run_sha256",
    [
        (dict(n=3, cost={"preset": "checker", "a": 1, "b": 2},
              arrival={"kind": "uniform-integer", "nu": "uniform", "a_max": 2},
              epsilon_grid=[0.1], slots=600, warmup=100, seed=5),
         "c162dd712347a74fd24b81d03be31c76af6b299c4ed1b8ad392ef6bd4f03e6ce",
         "69f4b815699a8c1da58ac760a8e5bfc5349379889fcb30ca257d3ad3b22c21b6"),
        (dict(n=8, cost={"preset": "random", "seed": 3, "lo": 0.5, "hi": 2},
              arrival={"kind": "truncated-poisson", "nu": "uniform", "a_max": 3},
              epsilon_grid=[0.2], slots=300, warmup=60, seed=5),
         "ce76761c3e060c0c38fe18cbbdeeba847a88b6951dd6b8ded22b8b35eda2d87d",
         "0284cbfb520fc278f309c330c3537126f9bae7bf48cab3010922bc25b4c40219"),
    ],
    ids=["n3-uniform-integer", "n8-hungarian-poisson"],
)
def test_cmd_simulate_trace_pinned(tmp_path, doc, sha256, run_sha256):
    # Bytes of the trace as the slot-by-slot writer produced them; the n = 3
    # trace has multi-packet arrivals and tie-broken schedules.  run.json is
    # pinned without its config, config hash and version.
    path = write_cfg(tmp_path, base_doc(tmp_path, replications=1, **doc))
    trace = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--config", path, "--trace", str(trace)]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == sha256
    run_doc = tmp_path / "out" / "run.json"
    keys = set(json.loads(run_doc.read_text())) - {"config", "config_hash", "version"}
    assert _report_sha256(run_doc, keys) == run_sha256


# -------- validate command --------

def test_validate_suite_passes_and_detects_corruption():
    results = validate_mod.run_suite(seed=1, out=lambda *_: None)
    assert all(r.ok for r in results)

    def broken_matcher(Q, cost, rng):
        return Schedule(tuple(range(cost.n)))  # always the identity

    bad = validate_mod.run_suite(seed=1, matcher=broken_matcher, out=lambda *_: None)
    failed = {r.name for r in bad if not r.ok}
    assert "matcher agreement with enumeration" in failed
    assert "tie-breaking uniformity" in failed
    assert "simulator slot invariants" in failed


@pytest.mark.parametrize("df", [1, 3, 5, 7, 23])
def test_chi2_survival_closed_form_matches_scipy(df):
    from scipy.stats import chi2

    for x in np.linspace(0.1, 80.0, 400):
        assert validate_mod._chi2_sf(float(x), df) == pytest.approx(chi2.sf(x, df), rel=1e-13)


def test_tie_uniformity_pvalue_is_scipys_chisquare(monkeypatch):
    from scipy.stats import chisquare

    seen = []
    real = validate_mod._chisquare_pvalue

    def spy(obs):
        seen.append(obs)
        return real(obs)

    monkeypatch.setattr(validate_mod, "_chisquare_pvalue", spy)
    ok, _ = validate_mod._check_tie_uniformity(np.random.default_rng(1),
                                               validate_mod.scheduling.max_weight_schedule)
    assert ok and len(seen) == 1 and sum(seen[0]) == 12_000
    assert real(seen[0]) == pytest.approx(chisquare(seen[0]).pvalue, rel=1e-13)


@pytest.mark.parametrize("fault", ["survival-off-by-one", "draw-above-support"])
def test_arrival_moments_check_detects_a_faulty_law(monkeypatch, fault):
    # The check keeps per-queue value counts only; a table of P(A > k)
    # instead of P(A >= k) must still miss the moments, and one draw of
    # a_max + 1 per chunk must still break the support bound.
    if fault == "survival-off-by-one":
        law = traffic._law

        def shifted(kind, mean, a_max):
            S, second = law(kind, mean, a_max)
            return np.concatenate([S[:, 1:], np.zeros((len(S), 1))], axis=1), second

        monkeypatch.setattr(traffic, "_law", shifted)
        expected = "empirical mean off"
    else:
        sample_block = ArrivalModel.sample_block

        def above(self, rng, count):
            A = sample_block(self, rng, count)
            A[-1, -1] = self.a_max + 1
            return A

        monkeypatch.setattr(ArrivalModel, "sample_block", above)
        expected = "support bound violated"
    ok, detail = validate_mod._check_traffic_moments(np.random.default_rng(1))
    assert not ok and detail == f"bernoulli: {expected}"


def test_cmd_validate_exit_code(tmp_path, capsys):
    rc = cli.main(["validate", "--seed", "1", "--verbose"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out
