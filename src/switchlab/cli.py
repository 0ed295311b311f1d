"""Command-line entry point.

Subcommands:

* ``zeta``        -- analytic overlap fractions by both routes, cross-check,
                     heavy-traffic limit (writes zeta.json)
* ``sweep``       -- simulation sweep over the epsilon grid with parallel
                     replications (writes sweep.csv and sweep.json)
* ``lower-bound`` -- priority-ordering lower bound, n <= 3 (writes lb.json)
* ``simulate``    -- one replication, optional per-slot trace CSV
* ``validate``    -- desk-scale invariant suite, pass/fail table

Exit codes: 0 success, 1 configuration error, 2 analytic cross-check
failure, 3 infeasible request.

A single JSON document configures everything; cost/arrival presets are
expanded at parse time and the expanded form is embedded in every output for
provenance.  One master seed plus SeedSequence spawn keys
(epsilon index, replication, purpose) derive every stream, so adding
replications or epsilon points never perturbs existing runs, and results are
independent of worker count and completion order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, analytics, simulator, validate
from .traffic import ArrivalModel, uniform_nu
from .wlinalg import CostMatrix

CROSS_ERROR_LIMIT = 1e-6

SWEEP_CSV_COLUMNS = [
    "epsilon",
    "scaled_weighted_qsum",
    "stderr",
    "perp_norm_mean",
    "perp_norm2_mean",
    "unused_service_rate",
    "slots",
    "replications",
]


class ConfigError(ValueError):
    pass


class InfeasibleError(ValueError):
    pass


# -------- configuration --------


# The keys a configuration document may carry, at its top level and in its
# "arrival" object; to_dict writes exactly these.
_DOC_KEYS = frozenset({
    "n", "cost", "arrival", "epsilon_grid", "slots", "slots_by_epsilon", "warmup",
    "replications", "seed", "ssc_sampling_stride", "output_dir",
})
_ARRIVAL_KEYS = frozenset({"kind", "nu", "a_max"})


def _object(value, where: str, keys: frozenset | None = None) -> dict:
    """``value``, which must be a JSON object, and one without keys outside
    ``keys`` when those are given."""
    if not isinstance(value, dict):
        raise ConfigError(f"malformed configuration: {where} must be an object")
    unknown = sorted(set(value) - keys) if keys is not None else []
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    return value


def _integer(value, where: str) -> int:
    """``value``, which must be a whole number: an integer, or a float with an
    integral value.  A fraction or a boolean is an error, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _number(value, where: str) -> float:
    """``value``, which must be a finite JSON number; a string or a boolean is
    an error, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _matrix(value, n: int, where: str) -> np.ndarray:
    """``value``, which must be n lists of n finite JSON numbers."""
    if not (isinstance(value, list) and len(value) == n
            and all(isinstance(row, list) and len(row) == n for row in value)):
        raise ConfigError(f"{where} must be {n}x{n}")
    return np.array([[_number(x, f"{where} entry") for x in row] for row in value])


# The keys of a "cost" object: "matrix" alone (so not with "preset"), or
# "preset" with the parameters of that preset.
_COST_KEYS = {
    "matrix": frozenset({"matrix"}),
    "ones": frozenset({"preset"}),
    "checker": frozenset({"preset", "a", "b"}),
    "random": frozenset({"preset", "seed", "lo", "hi"}),
}


def _expand_cost(n: int, spec) -> np.ndarray:
    if not isinstance(spec, dict):
        raise ConfigError("cost must be an object with 'preset' or 'matrix'")
    preset = "matrix" if "matrix" in spec else spec.get("preset")
    if preset not in _COST_KEYS:
        raise ConfigError(f"unknown cost preset {preset!r}")
    _object(spec, f"cost ({preset})", _COST_KEYS[preset])
    if preset == "matrix":
        return _matrix(spec["matrix"], n, "cost matrix")
    if preset == "ones":
        return np.ones((n, n))
    if preset == "checker":
        a, b = _number(spec.get("a", 1.0), "cost a"), _number(spec.get("b", 2.0), "cost b")
        m = np.full((n, n), a)
        for i in range(n):
            for j in range(n):
                if (i + j) % 2:
                    m[i, j] = b
        return m
    rng = np.random.default_rng(_integer(spec.get("seed", 0), "cost seed"))
    lo, hi = _number(spec.get("lo", 0.5), "cost lo"), _number(spec.get("hi", 2.0), "cost hi")
    return rng.uniform(lo, hi, (n, n))


def _expand_nu(n: int, spec) -> np.ndarray:
    if spec == "uniform" or spec is None:
        return uniform_nu(n)
    return _matrix(spec, n, "nu")


@dataclass(eq=False, frozen=True)
class ExperimentConfig:
    cost: np.ndarray
    arrival_kind: str
    nu: np.ndarray
    a_max: int
    epsilon_grid: list[float]
    slots: int
    slots_by_epsilon: dict[float, int] = field(default_factory=dict)
    warmup: int | None = None
    replications: int = 1
    seed: int = 0
    ssc_sampling_stride: int = 100
    output_dir: str = "out"

    def __post_init__(self):
        if not self.epsilon_grid:
            raise ConfigError("epsilon_grid must be nonempty")
        repeated = sorted({e for e in self.epsilon_grid if self.epsilon_grid.count(e) > 1})
        if repeated:
            raise ConfigError(f"epsilon_grid repeats {repeated}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        off_grid = [e for e in self.slots_by_epsilon if e not in self.epsilon_grid]
        if off_grid:
            raise ConfigError(f"slots_by_epsilon keys not on epsilon_grid: {off_grid}")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")
        # Build every object a task builds, once: a bad value fails here and
        # not inside a worker process, and no arrival model is calibrated twice.
        # The config is frozen so that these runs cannot go stale.
        try:
            cost = CostMatrix(self.cost)
            run_configs = [
                simulator.RunConfig(
                    c=cost,
                    model=ArrivalModel(
                        kind=self.arrival_kind, nu=self.nu, epsilon=eps, a_max=self.a_max
                    ),
                    measured=self.slots_for(eps),
                    warmup=self.warmup,
                    ssc_stride=self.ssc_sampling_stride,
                    seed=self.seed,
                    stream_key=(ei, 0),
                )
                for ei, eps in enumerate(self.epsilon_grid)
            ]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "_run_configs", run_configs)

    # -- construction / serialization --

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _object(doc, "the document", _DOC_KEYS)
        arrival = _object(doc.get("arrival", {}), "arrival", _ARRIVAL_KEYS)
        try:
            n = _integer(doc["n"], "n")
            if n < 2:  # before the cost and nu are built n x n
                raise ConfigError("n must be >= 2")
            cost = _expand_cost(n, doc.get("cost", {"preset": "ones"}))
            kind = arrival.get("kind", "bernoulli")
            nu = _expand_nu(n, arrival.get("nu", "uniform"))
            default_amax = {"bernoulli": 1, "uniform-integer": 2, "truncated-poisson": 10}
            a_max = _integer(arrival.get("a_max", default_amax.get(kind, 1)), "arrival a_max")
            by_eps = _object(doc.get("slots_by_epsilon", {}), "slots_by_epsilon")
            sbe = {float(k): _integer(v, f"slots_by_epsilon[{k!r}]") for k, v in by_eps.items()}
            if len(sbe) < len(by_eps):
                raise ConfigError(f"slots_by_epsilon spells one epsilon twice: {list(by_eps)}")
            return cls(
                cost=cost,
                arrival_kind=kind,
                nu=nu,
                a_max=a_max,
                epsilon_grid=[_number(e, "epsilon_grid entry") for e in doc["epsilon_grid"]],
                slots=_integer(doc.get("slots", 1_000_000), "slots"),
                slots_by_epsilon=sbe,
                warmup=None if doc.get("warmup") is None else _integer(doc["warmup"], "warmup"),
                replications=_integer(doc.get("replications", 1), "replications"),
                seed=_integer(doc.get("seed", 0), "seed"),
                ssc_sampling_stride=_integer(
                    doc.get("ssc_sampling_stride", 100), "ssc_sampling_stride"
                ),
                output_dir=doc.get("output_dir", "out"),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed configuration: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "cost": {"matrix": self.cost.tolist()},
            "arrival": {"kind": self.arrival_kind, "nu": self.nu.tolist(), "a_max": self.a_max},
            "epsilon_grid": list(self.epsilon_grid),
            "slots": self.slots,
            "slots_by_epsilon": {repr(k): v for k, v in self.slots_by_epsilon.items()},
            "warmup": self.warmup,
            "replications": self.replications,
            "seed": self.seed,
            "ssc_sampling_stride": self.ssc_sampling_stride,
            "output_dir": self.output_dir,
        }

    # -- derived objects --

    @property
    def n(self) -> int:
        return self.cost.shape[0]

    def cost_matrix(self) -> CostMatrix:
        return self._run_configs[0].c

    def model(self, epsilon: float) -> ArrivalModel:
        """The arrival model of grid point ``epsilon``."""
        return self._run_configs[self.epsilon_grid.index(epsilon)].model

    def slots_for(self, epsilon: float) -> int:
        return self.slots_by_epsilon.get(epsilon, self.slots)

    def run_config(self, eps_index: int) -> simulator.RunConfig:
        """Replication 0 at grid point ``eps_index`` (stream key (eps_index, 0))."""
        return replace(self._run_configs[eps_index])

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path: str, seed: int | None = None) -> ExperimentConfig:
    """Read a config file; a ``seed`` given here replaces the document's."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if seed is not None and isinstance(doc, dict):
        doc["seed"] = seed
    return ExperimentConfig.from_dict(doc)


# -------- sweep orchestration --------


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> dict[float, list[simulator.RunStats]]:
    """All (epsilon, replication) runs, reduced in deterministic task order."""
    tasks = [
        replace(cfg.run_config(ei), stream_key=(ei, rep))
        for ei in range(len(cfg.epsilon_grid))
        for rep in range(cfg.replications)
    ]
    if jobs <= 1 or len(tasks) == 1:
        results = [simulator.run(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(simulator.run, tasks))
    by_eps: dict[float, list[simulator.RunStats]] = {e: [] for e in cfg.epsilon_grid}
    for t, st in zip(tasks, results):
        by_eps[t.model.epsilon].append(st)
    return by_eps


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def sweep_rows(cfg: ExperimentConfig, by_eps: dict[float, list[simulator.RunStats]]) -> list[dict]:
    rows = []
    for eps in cfg.epsilon_grid:
        reps = by_eps[eps]
        pooled = analytics.pool_runs(reps)
        rows.append(
            {
                "epsilon": eps,
                "scaled_weighted_qsum": eps * pooled["mean_weighted_qsum"],
                "stderr": eps * pooled["stderr_weighted_qsum"],
                "mean_weighted_qsum": pooled["mean_weighted_qsum"],
                "stderr_weighted_qsum": pooled["stderr_weighted_qsum"],
                "perp_norm_mean": pooled["perp_mean"],
                "perp_norm2_mean": pooled["perp2_mean"],
                "perp_norm4_mean": pooled["perp4_mean"],
                "par_norm_mean": pooled["par_mean"],
                "unused_service_rate": pooled["unused_service_rate"],
                "stderr_unused_service": pooled["stderr_unused_service"],
                "slots": reps[0].measured_slots,
                "replications": len(reps),
                "warmup": reps[0].warmup_slots,
                "matcher_mode": reps[0].matcher_mode,
            }
        )
    return rows


def write_sweep_csv(path: Path, rows: list[dict]) -> None:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in SWEEP_CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def analytic_block(cfg: ExperimentConfig) -> dict:
    cost = cfg.cost_matrix()
    rep = analytics.cross_validated_zeta(cost)
    # The arrival variance at load -> 1, the same at every grid point.
    sigma2 = cfg.model(cfg.epsilon_grid[0]).limit_moments().var
    limit = analytics.ht_limit(cost, sigma2)
    block = {
        "zeta_projection": rep.projection.zeta.tolist(),
        "zeta_gmatrix": rep.gmatrix.zeta.tolist(),
        "cross_error": rep.cross_error,
        "sigma2": sigma2.tolist(),
        "ht_limit": limit,
    }
    if cfg.n == 2:
        alt = analytics.n2_closed_form(cost, sigma2)
        block["n2_closed_form"] = alt
        block["ht_limit_over_n2_closed_form"] = (limit / alt) if alt else None
    if cfg.n <= analytics.LOWER_BOUND_MAX_N:
        lbs = {}
        for eps in cfg.epsilon_grid:
            lb = analytics.universal_lower_bound(cost, cfg.model(eps))
            lbs[repr(eps)] = {"Qstar_eps": lb.Qstar_eps, "Qstar_limit": lb.Qstar_limit}
        block["lower_bound"] = lbs
    return block


def _output_dir(cfg: ExperimentConfig) -> Path:
    """The output directory, created if missing.  Each command makes it
    before any simulation or analytics, so a path that cannot be made ends
    the command as a config error, not after its work."""
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output_dir {cfg.output_dir!r}: {exc}") from exc
    return out


def _write_report(cfg: ExperimentConfig, out: Path, name: str, doc: dict, *before: Path) -> None:
    """Write ``doc``, with the config, its hash and the version, as JSON ``name``
    in the output directory ``out``, and print that it and the files ``before``
    were written."""
    doc = {"config": cfg.to_dict(), "config_hash": cfg.config_hash(), "version": __version__, **doc}
    (out / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("wrote " + " and ".join(map(str, [*before, out / name])))


def _trace_writer(f, n: int):
    """``simulate --trace``'s ``RunConfig.record``: each chunk's slots as CSV rows
    of ``f``, with the queues Q(t+1) after each slot."""
    ij = np.divmod(np.arange(n * n), n)
    f.write("t,i,j,Q,A,S,U\n")

    def write(rec: simulator.SlotRecord):
        cols = (np.repeat(rec.t, n * n), *(np.tile(x, len(rec.t)) for x in ij),
                rec.Q, rec.A, rec.S, rec.U)
        f.writelines(map("{},{},{},{},{},{},{}\n".format, *(c.ravel().tolist() for c in cols)))

    return write


# -------- subcommands --------


def cmd_zeta(args) -> int:
    cfg = load_config(args.config)
    out = _output_dir(cfg)
    block = analytic_block(cfg)
    if args.verbose:
        print(f"zeta cross-error {block['cross_error']:.3e}, ht_limit {block['ht_limit']:.6g}")
    _write_report(cfg, out, "zeta.json", block)
    if block["cross_error"] > CROSS_ERROR_LIMIT:
        print(
            f"error: zeta routes disagree by {block['cross_error']:.3e} > {CROSS_ERROR_LIMIT:g}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = load_config(args.config, seed=args.seed)
    out = _output_dir(cfg)
    by_eps = run_sweep(cfg, jobs=args.jobs)
    rows = sweep_rows(cfg, by_eps)
    csv = out / "sweep.csv"
    write_sweep_csv(csv, rows)
    curve = analytics.ssc_curve(by_eps) if len(cfg.epsilon_grid) >= 3 else None
    doc = {
        "seed": cfg.seed,
        "rows": rows,
        "analytics": analytic_block(cfg),
        "ssc": None
        if curve is None
        else {"par_slope": curve.par_slope, "perp_slope": curve.perp_slope},
    }
    _write_report(cfg, out, "sweep.json", doc, csv)
    return 0


def cmd_lower_bound(args) -> int:
    cfg = load_config(args.config)
    if cfg.n > analytics.LOWER_BOUND_MAX_N:
        n_fact = math.factorial(cfg.n)
        raise InfeasibleError(
            f"n={cfg.n} requires ({n_fact})! = factorial({n_fact}) priority orderings; "
            f"the enumeration is only feasible for n <= {analytics.LOWER_BOUND_MAX_N}"
        )
    out = _output_dir(cfg)
    cost = cfg.cost_matrix()
    per_eps = {}
    for eps in cfg.epsilon_grid:
        lb = analytics.universal_lower_bound(cost, cfg.model(eps))
        per_eps[repr(eps)] = {
            "Qstar_eps": lb.Qstar_eps,
            "Qstar_limit": lb.Qstar_limit,
            "clamped_classes": lb.clamped_classes,
            "per_ordering": [
                {
                    "ordering": list(b.ordering),
                    "value_eps": b.value_eps,
                    "value_limit": b.value_limit,
                }
                for b in lb.per_ordering
            ],
        }
        schedules = lb.schedules
    doc = {
        "schedules": [list(s) for s in schedules],
        "orderings_enumerated": math.factorial(math.factorial(cfg.n)),
        "by_epsilon": per_eps,
    }
    _write_report(cfg, out, "lb.json", doc)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    eps = cfg.epsilon_grid[0]
    out = _output_dir(cfg)  # first: the trace may be written there
    if args.trace is None:
        stats = simulator.run(cfg.run_config(0))
    else:
        try:
            f = open(args.trace, "w")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot open --trace {args.trace!r}: {exc}") from exc
        with f:
            stats = simulator.run(replace(cfg.run_config(0), record=_trace_writer(f, cfg.n)))
    pooled = analytics.pool_runs([stats])
    doc = {
        "epsilon": eps,
        "seed": cfg.seed,
        "matcher_mode": stats.matcher_mode,
        "warmup_slots": stats.warmup_slots,
        "measured_slots": stats.measured_slots,
        "mean_weighted_qsum": pooled["mean_weighted_qsum"],
        "stderr_weighted_qsum": pooled["stderr_weighted_qsum"],
        "scaled_weighted_qsum": eps * pooled["mean_weighted_qsum"],
        "unused_service_rate": pooled["unused_service_rate"],
        "stderr_unused_service": pooled["stderr_unused_service"],
        "mean_perp_norm": pooled["perp_mean"],
        "mean_perp_norm2": pooled["perp2_mean"],
        "mean_perp_norm4": pooled["perp4_mean"],
        "mean_par_norm": pooled["par_mean"],
        "conservation_ok": stats.conservation_ok,
        "qu_dot_violation": stats.qu_dot_violation,
    }
    _write_report(cfg, out, "run.json", doc)
    if args.trace is not None:
        print(f"wrote {args.trace}")
    return 0


def cmd_validate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    results = validate.run_suite(seed=args.seed, verbose=args.verbose)
    ok = all(r.ok for r in results)
    total = sum(r.seconds for r in results)
    print(f"{sum(r.ok for r in results)}/{len(results)} checks passed in {total:.1f}s")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="switchlab",
        description="Input-queued switch simulator and heavy-traffic analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config = {"required": True, "help": "path to JSON config"}
    seed = {"type": int, "default": None, "help": "override the config seed"}
    verbose = {"action": "store_true"}
    # Each subcommand registers the flags it reads, and no others.
    for name, fn, help_, flags in [
        ("zeta", cmd_zeta, "analytic overlap fractions and heavy-traffic limit",
         {"--config": config, "--verbose": verbose}),
        ("sweep", cmd_sweep, "epsilon sweep with parallel replications",
         {"--config": config, "--seed": seed,
          "--jobs": {"type": int, "default": os.cpu_count() or 1,
                     "help": "worker processes (default: cores)"}}),
        ("lower-bound", cmd_lower_bound,
         f"priority-ordering lower bound (n <= {analytics.LOWER_BOUND_MAX_N})",
         {"--config": config}),
        ("simulate", cmd_simulate, "single replication with optional trace dump",
         {"--config": config, "--seed": seed,
          "--trace": {"default": None, "help": "write per-slot trace CSV here"}}),
        ("validate", cmd_validate, "run the invariant suite",
         {"--seed": {"type": int, "default": 0, "help": "suite seed"}, "--verbose": verbose}),
    ]:
        p = sub.add_parser(name, help=help_)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible request: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
