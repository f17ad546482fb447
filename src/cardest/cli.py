"""Command-line pipeline: gen-data, train, delete, unlearn, eval, report.

Every stage reads one YAML experiment config, writes its outputs under the
config's output directory, and drops a manifest (config hash, seeds,
versions) so runs are replayable.  All randomness comes from the explicit
seeds in the config; rerunning a stage with identical inputs produces
byte-identical outputs (timing files aside, which measure wall time).

Exit codes: 0 success, 2 validation/configuration error, 3 stage-ordering
error, 4 runtime or training error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .datagen import DataGenConfig, gen_star_schema
from .errors import (CardestError, ConfigurationError, StageOrderingError,
                     ValidationError)
from .model import (ArDensityModel, ModelConfig, _is_int, encode_relation,
                    init_model, load_checkpoint, save_checkpoint, train)
from .queries import save_workload
from .relational import (JOIN_CAP_DEFAULT, Condition, DatasetSplit, DeletionTask,
                         SchemaGraph, apply_deletion, condition_mask, count_join,
                         join_keys, load_dataset, materialize_join, save_dataset)
from .unlearn import METHODS, CepConfig, run_method
from .workload import (PERCENTILES, WorkloadConfig, check_focus_columns,
                       complement_query, convergence_trace, evaluate,
                       gen_workload)


@dataclass
class ExperimentConfig:
    output_dir: Path
    seeds: dict[str, int]
    datagen: DataGenConfig | None
    dataset_dir: Path | None
    model: ModelConfig
    task: DeletionTask
    cep: CepConfig
    workload: WorkloadConfig
    join_cap: int
    raw: dict = field(default_factory=dict)


def parse_task(d: dict) -> DeletionTask:
    if not isinstance(d, dict):
        raise ConfigurationError("config section 'task' must be a mapping")
    name = d.get("name")
    if not (name and isinstance(name, str)):
        raise ConfigurationError("task needs a name like A-2-0.5")
    parts = name.split("-")
    if len(parts) != 3:
        raise ConfigurationError(f"task name {name!r} is not [Type]-[Scope]-[Ratio]")
    dtype, scope_s, ratio_s = parts
    try:
        scope, ratio = int(scope_s), float(ratio_s)
    except ValueError as exc:
        raise ConfigurationError(f"task name {name!r}: {exc}") from exc
    conds = d.get("conditions", [])
    if not (isinstance(conds, list)
            and all(isinstance(c, dict) and "table" in c for c in conds)):
        raise ConfigurationError(f"task {name!r}: conditions must be a list of "
                                 "mappings, each naming a table")
    if len(conds) != scope:
        raise ConfigurationError(
            f"task {name!r}: scope {scope} but {len(conds)} conditions")
    try:
        return DeletionTask(dtype=dtype, ratio=ratio, conditions=tuple(
            Condition(table=c["table"], column=c.get("column"), value=c.get("value"),
                      lo=c.get("lo"), hi=c.get("hi")) for c in conds))
    except ValidationError as exc:
        raise ConfigurationError(f"task {name!r}: {exc}") from exc


def _section(cls, d, name: str, **defaults):
    """One config section as its dataclass.  Every sequence field is a tuple,
    so YAML lists become tuples; an unknown key is named."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"config section {name!r} must be a mapping")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"config section {name!r} has unknown key {unknown[0]!r}")
    return cls(**{**defaults,
                  **{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}})


# libyaml's parser where PyYAML was built with it: the resolver and the
# constructor are the same Python classes, so every value is the same
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    try:
        raw = yaml.load(path.read_text(), Loader=YAML_LOADER) or {}
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a mapping")
    for key in ("output_dir", "seeds", "task"):
        if key not in raw:
            raise ConfigurationError(f"config is missing {key!r}")
    if not isinstance(raw["output_dir"], str):
        raise ConfigurationError(f"output_dir must be a path, not {raw['output_dir']!r}")
    seeds, join_cap = raw["seeds"], raw.get("join_cap", JOIN_CAP_DEFAULT)
    if not isinstance(seeds, dict):
        raise ConfigurationError("seeds must be a mapping")
    for k, v in seeds.items():
        if not (_is_int(v) and v >= 0):
            raise ConfigurationError(f"seeds.{k} must be an integer >= 0, not {v!r}")
    if not (_is_int(join_cap) and join_cap >= 1):
        raise ConfigurationError(f"join_cap must be an integer >= 1, not {join_cap!r}")
    for k in ("data", "model", "workload", "eval"):
        if k not in seeds:
            raise ConfigurationError(f"seeds must include {k!r}")
    datagen_cfg = None
    dataset_dir = None
    if "dataset" in raw:
        if not (isinstance(raw["dataset"], dict)
                and isinstance(raw["dataset"].get("dir"), str)):
            raise ConfigurationError("config section 'dataset' must be a mapping "
                                     "with a 'dir' path")
        dataset_dir = Path(raw["dataset"]["dir"])
    else:
        datagen_cfg = _section(DataGenConfig, raw.get("datagen", {}), "datagen",
                               seed=seeds["data"])
    model_cfg = _section(ModelConfig, raw.get("model", {}), "model")
    cep_cfg = _section(CepConfig, raw.get("cep", {}), "cep")
    workload_cfg = _section(WorkloadConfig, raw.get("workload", {}), "workload")
    for name, section in (("datagen", datagen_cfg), ("model", model_cfg), ("cep", cep_cfg),
                          ("workload", workload_cfg)):
        try:
            if section is not None:
                section.validate()
        except (TypeError, ValidationError) as exc:
            raise ConfigurationError(f"config section {name!r}: {exc}") from exc
    return ExperimentConfig(
        output_dir=Path(raw["output_dir"]),
        seeds=seeds,
        datagen=datagen_cfg,
        dataset_dir=dataset_dir,
        model=model_cfg,
        task=parse_task(raw["task"]),
        cep=cep_cfg,
        workload=workload_cfg,
        join_cap=join_cap,
        raw=raw,
    )


def write_manifest(directory: Path, command: str, cfg: ExperimentConfig,
                   extra: dict | None = None):
    directory.mkdir(parents=True, exist_ok=True)
    # the settings, not where they write: one experiment run in two
    # directories has one hash
    settings = {k: v for k, v in cfg.raw.items() if k != "output_dir"}
    config_bytes = json.dumps(settings, sort_keys=True, default=str).encode()
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "seeds": cfg.seeds,
        "versions": {"cardest": __version__,
                     "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    if extra:
        manifest.update(extra)
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")


# the environment variables that set the BLAS and OpenMP thread counts
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _compute_environment(model: ArDensityModel) -> dict:
    """What a training stage's numbers depend on besides its inputs: the
    model's dtype, the BLAS numpy was built with, the host's CPU count, and
    the thread variables (null where unset)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"dtype": model.theta.dtype.name,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES}}


def _require(path: Path, hint: str):
    if not path.exists():
        raise StageOrderingError(f"missing {path}; run `{hint}` first")


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# stages


def cmd_gen_data(cfg: ExperimentConfig) -> Path:
    """Generate the dataset, or validate and copy an external one.  It is
    the first stage that knows the schema, so it also checks the workload's
    focus columns against it."""
    out = cfg.output_dir / "data"
    if cfg.dataset_dir is not None:
        db = load_dataset(cfg.dataset_dir)
    else:
        db = gen_star_schema(cfg.datagen)
    check_focus_columns(db, cfg.workload.focus_columns)
    save_dataset(db, out)
    write_manifest(out, "gen-data", cfg, {"tables": db.table_names()})
    return out


def _load_db(cfg: ExperimentConfig) -> SchemaGraph:
    data_dir = cfg.output_dir / "data"
    _require(data_dir / "schema.txt", "cardest gen-data")
    return load_dataset(data_dir)


def cmd_train(cfg: ExperimentConfig) -> Path:
    db = _load_db(cfg)
    out = cfg.output_dir / "model"
    out.mkdir(parents=True, exist_ok=True)
    rel = materialize_join(db.tables, db.joins, cap=cfg.join_cap)
    join_rows = rel.cardinality
    model = init_model(rel.columns, cfg.model, seed=cfg.seeds["model"])
    codes, valid = encode_relation(model, rel)
    codes = codes[valid]
    del db, rel, valid   # freed before training, which sets the stage's peak
    t0 = time.perf_counter()
    trace = train(model, codes, cfg.seeds["model"])
    train_seconds = time.perf_counter() - t0
    save_checkpoint(model, out / "original.ckpt")
    _write_csv(out / "train_trace.csv", ["step", "loss"],
               [[i, _fmt(v)] for i, v in enumerate(trace)])
    _write_csv(out / "timing.csv", ["stage", "seconds"],
               [["train_seconds", repr(train_seconds)]])
    write_manifest(out, "train", cfg, {"parameters": model.parameter_count(),
                                       "join_rows": join_rows,
                                       "compute": _compute_environment(model)})
    return out


def cmd_delete(cfg: ExperimentConfig) -> Path:
    """Apply the task to the dataset and mark it applied (``task.json``).  A
    condition that matches no row is a configuration error: it would delete
    nothing, yet every later stage would run as though it had.  No stage
    reads ``split/`` back: each re-derives the split from the config."""
    db = _load_db(cfg)
    split = apply_deletion(db, cfg.task, seed=cfg.seeds["data"])
    for c in cfg.task.conditions:
        if not condition_mask(db.table(c.table), c).any():
            raise ConfigurationError(f"deletion condition {c} matches no row")
    out = cfg.output_dir / "split"
    save_dataset(SchemaGraph(split.retained, db.joins, db.hub), out / "retained")
    task_doc = {"name": cfg.task.name, "dtype": cfg.task.dtype, "ratio": cfg.task.ratio,
                "conditions": [{"table": c.table, "column": c.column, "value": c.value,
                                "lo": c.lo, "hi": c.hi} for c in cfg.task.conditions]}
    (out / "task.json").write_text(json.dumps(task_doc, sort_keys=True, indent=1) + "\n")
    write_manifest(out, "delete", cfg, {"deleted_rows": {
        t.name: rows.size for t, rows in zip(db.tables, split.deleted_rows)}})
    return out


def _load_split(cfg: ExperimentConfig) -> DatasetSplit:
    _require(cfg.output_dir / "split" / "task.json", "cardest delete")
    return apply_deletion(_load_db(cfg), cfg.task, seed=cfg.seeds["data"])


def cmd_unlearn(cfg: ExperimentConfig, method: str,
                cep_overrides: dict | None = None) -> Path:
    """``cep_overrides`` maps ``CepConfig`` field names to the values that
    replace the config's; they are range-checked like the config's own."""
    cep_cfg = replace(cfg.cep, **(cep_overrides or {}))
    cep_cfg.validate()
    split = _load_split(cfg)
    original = None
    if method != "retrain":
        ckpt = cfg.output_dir / "model" / "original.ckpt"
        _require(ckpt, "cardest train")
        original = load_checkpoint(ckpt)
    run = run_method(method, split, original, cep_cfg, seed=cfg.seeds["model"],
                     model_cfg=cfg.model, cap=cfg.join_cap)
    out = cfg.output_dir / f"unlearn-{method}"
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(run.model, out / "model.ckpt")
    total = sum(v for k, v in run.timings.items()
                if k in ("prune_seconds", "finetune_seconds", "train_seconds"))
    _write_csv(out / "timing.csv", ["stage", "seconds"],
               [[k, repr(v)] for k, v in run.timings.items()] +
               [["total_seconds", repr(total)]])
    _write_csv(out / "trace.csv", ["step", "loss"],
               [[i, _fmt(v)] for i, v in enumerate(run.loss_trace)])
    write_manifest(out, f"unlearn-{method}", cfg, {"method": method, "cep": asdict(cep_cfg),
                                                   "compute": _compute_environment(run.model)})
    return out


def _workloads(cfg: ExperimentConfig, db: SchemaGraph):
    """OQ and CQ workloads; regenerated deterministically on each call and
    persisted next to the stage outputs for inspection."""
    wl_cfg = cfg.workload
    if not wl_cfg.focus_columns:  # the deletion's condition columns that are attributes
        keys = join_keys(db.joins)
        wl_cfg = replace(wl_cfg, focus_columns=tuple(
            f"{t}.{c}" for t, c in cfg.task.condition_columns() if (t, c) not in keys))
    oq = gen_workload(db, wl_cfg.n_queries, cfg.seeds["workload"], wl_cfg)
    cond_cols = {f"{t}.{c}" for t, c in cfg.task.condition_columns()}
    cq = [c for q in oq if (c := complement_query(q, cond_cols)) is not None]
    save_workload(oq, cfg.output_dir / "workload_oq.txt")
    save_workload(cq, cfg.output_dir / "workload_cq.txt")
    return oq, cq


def cmd_eval(cfg: ExperimentConfig, method: str, query_types: str = "both") -> Path:
    split = _load_split(cfg)
    # the scale constant is the join of the tables the model was trained on
    if method == "stale":
        ckpt, hint, scale_tables = (cfg.output_dir / "model" / "original.ckpt",
                                    "cardest train", split.original)
    else:
        ckpt, hint, scale_tables = (cfg.output_dir / f"unlearn-{method}" / "model.ckpt",
                                    f"cardest unlearn --method {method}", split.retained)
    _require(ckpt, hint)
    model = load_checkpoint(ckpt)
    total_rows = count_join(scale_tables, split.joins, {}, cfg.join_cap)

    oq, cq = _workloads(cfg, split.db)
    labeled = []
    if query_types in ("oq", "both"):
        labeled += [("OQ", q) for q in oq]
    if query_types in ("cq", "both"):
        labeled += [("CQ", q) for q in cq]
    t0 = time.perf_counter()
    report = evaluate(model, labeled, split.retained, split.joins, total_rows,
                      seed=cfg.seeds["eval"], num_samples=cfg.workload.num_samples,
                      cap=cfg.join_cap)
    eval_seconds = time.perf_counter() - t0

    out = cfg.output_dir / f"eval-{method}"
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "report.csv",
               ["query_id", "type", "c", "c_hat", "c_hat_sem", "paths", "qerr",
                "excluded_reason"],
               [[r.qid, r.qtype, _fmt(r.true_card), _fmt(r.est_card), _fmt(r.est_sem), r.paths,
                 _fmt(r.qerr) if r.qerr is not None else "",
                 r.excluded_reason or ""] for r in report.rows])
    rows = []
    for qtype, pcts in sorted(report.percentiles.items()):
        mine = [r for r in report.rows if qtype in ("ALL", r.qtype)]
        rows.append([method, qtype] + [_fmt(pcts[p]) for p in PERCENTILES] +
                    [sum(r.qerr is not None for r in mine)] +
                    [sum(r.excluded_reason == why for r in mine)
                     for why in ("model-zero", "true-zero")] + [total_rows])
    _write_csv(out / "summary.csv",
               ["method", "qtype", "p50", "p75", "p95", "p99",
                "included", "excluded_model_zero", "excluded_true_zero", "scale_rows"],
               rows)
    _write_csv(out / "timing.csv", ["stage", "seconds"],
               [["eval_seconds", repr(eval_seconds)]])
    write_manifest(out, f"eval-{method}", cfg,
                   {"method": method, "query_types": query_types,
                    "degenerate": report.degenerate})
    return out


def cmd_report(cfg: ExperimentConfig) -> Path:
    out = cfg.output_dir / "report"
    out.mkdir(parents=True, exist_ok=True)
    lines = ["# Q-error summary", "",
             "| method | qtype | p50 | p75 | p95 | p99 | included |",
             "|---|---|---|---|---|---|---|"]
    summary_rows = []
    for method in METHODS:
        summary = cfg.output_dir / f"eval-{method}" / "summary.csv"
        if not summary.exists():
            continue
        with open(summary, newline="") as fh:
            for row in list(csv.DictReader(fh)):
                summary_rows.append(row)
                lines.append("| {method} | {qtype} | {p50} | {p75} | {p95} | {p99} |"
                             " {included} |".format(**row))
    (out / "consolidated.md").write_text("\n".join(lines) + "\n")
    # wall-clock times go to a timing file of their own, so that every other
    # report file is byte-identical between reruns
    timings = []
    for method in METHODS:
        timing = cfg.output_dir / f"unlearn-{method}" / "timing.csv"
        if timing.exists():
            with open(timing, newline="") as fh:
                timings += [[method, r["stage"], r["seconds"]] for r in csv.DictReader(fh)]
    _write_csv(out / "timings.csv", ["method", "stage", "seconds"], timings)
    if summary_rows:
        _write_csv(out / "summary_all.csv", list(summary_rows[0].keys()),
                   [list(r.values()) for r in summary_rows])

    traces = {}
    for method in METHODS:
        trace = cfg.output_dir / f"unlearn-{method}" / "trace.csv"
        if trace.exists():
            with open(trace, newline="") as fh:
                vals = [float(r["loss"]) for r in csv.DictReader(fh)]
            if vals:
                traces[method] = vals
    if traces:
        curves = convergence_trace(traces)
        header = ["progress_pct"] + sorted(curves)
        rows = []
        for i in range(101):
            rows.append([i] + [_fmt(curves[m][i]) for m in sorted(curves)])
        _write_csv(out / "convergence.csv", header, rows)
    write_manifest(out, "report", cfg)
    return out


# ---------------------------------------------------------------------------
# entry point


# the exit code of an error is that of the first class here it is an instance of
EXIT_CODES = ((StageOrderingError, 3), (ValidationError, 2), (ConfigurationError, 2),
              (CardestError, 4))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cardest",
                                 description="star-schema cardinality estimation "
                                             "with deletion unlearning")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("-c", "--config", required=True, help="experiment YAML")
        return p

    add("gen-data", "generate or import the dataset")
    add("train", "train the original model")
    add("delete", "apply the deletion task")
    p = add("unlearn", "produce an unlearned/baseline model")
    p.add_argument("--method", required=True, choices=METHODS)
    # each override is stored under its CepConfig field name, None when absent
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--ns", dest="sampling_iterations", type=int, default=None,
                   help="sampling iterations")
    p.add_argument("--finetune-epochs", type=int, default=None)
    p.add_argument("--no-domain-prune", dest="domain_prune", action="store_false",
                   default=None)
    p.add_argument("--no-sensitivity-prune", dest="sensitivity_prune",
                   action="store_false", default=None)
    p = add("eval", "evaluate a checkpoint on OQ/CQ workloads")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--query-types", default="both", choices=("oq", "cq", "both"))
    add("report", "consolidate summaries, timings, and convergence curves")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "gen-data":
            out = cmd_gen_data(cfg)
        elif args.command == "train":
            out = cmd_train(cfg)
        elif args.command == "delete":
            out = cmd_delete(cfg)
        elif args.command == "unlearn":
            flags = {f.name: getattr(args, f.name, None) for f in fields(CepConfig)}
            out = cmd_unlearn(cfg, args.method,
                              {k: v for k, v in flags.items() if v is not None})
        elif args.command == "eval":
            out = cmd_eval(cfg, args.method, args.query_types)
        else:
            out = cmd_report(cfg)
        print(out)
        return 0
    except CardestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
