import csv
import hashlib
import json
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from cardest.cli import _workloads, load_config, main, write_manifest
from cardest.datagen import DataGenConfig, gen_star_schema
from cardest.errors import ConfigurationError, ValidationError
from cardest.model import load_checkpoint
from cardest.relational import load_dataset, save_dataset
from cardest.unlearn import CepConfig
from cardest.workload import model_constraints
from conftest import chain_db, nested_loop_join, rewrite_checkpoint


SEEDS = {"data": 1, "model": 2, "workload": 3, "eval": 4}


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "output_dir": str(tmp_path / "run"),
        "seeds": dict(SEEDS),
        "datagen": {"hub_rows": 400, "dim_rows": [30, 20], "seed": 1,
                    "hub_cat_cards": [6, 4], "dim_cat_cards": [5, 4],
                    "numeric_range": [0.0, 100.0]},
        "model": {"embedding_dim": 4, "hidden_dim": 16, "residual_blocks": 2,
                  "dropout": 0.1, "numeric_bins": 16, "epochs": 3,
                  "batch_size": 64},
        "task": {"name": "A-1-1.0",
                 "conditions": [{"table": "fact", "column": "amount",
                                 "lo": 30.0, "hi": 60.0}]},
        "cep": {"alpha": 0.3, "sampling_iterations": 3, "batch_size": 32,
                "finetune_epochs": 2},
        "workload": {"n_queries": 12, "num_samples": 64},
    }
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def run(cmd, cfg_path, *extra):
    return main([cmd, "-c", str(cfg_path), *extra])


def nested_loop_count(tables, joins, q):
    """Rows of ``q``'s scope join that satisfy its predicates, by brute
    force over the cross product, in original value space."""
    scope = [t for t in tables if t.name in q.scope]
    by_name = {t.name: t for t in scope}
    count = 0
    for rows in nested_loop_join(scope, joins):
        ok = True
        for p in q.predicates:
            tname, cname = p.column.split(".", 1)
            spec, v = by_name[tname].spec(cname), by_name[tname].column(cname)[rows[tname]]
            original = spec.dictionary[int(v)] if spec.kind == "categorical" else v
            ok = ok and bool(p.matches(np.array([original]))[0])
        count += ok
    return count


def swap(old, new):
    """A file edit that replaces the first ``old`` with ``new``."""
    def edit(text):
        assert old in text
        return text.replace(old, new, 1)
    return edit


class TestStages:
    def test_full_pipeline(self, tmp_path):
        cfg = write_config(tmp_path)
        run_dir = tmp_path / "run"
        assert run(("gen-data"), cfg) == 0
        assert (run_dir / "data" / "schema.txt").exists()
        assert (run_dir / "data" / "manifest.json").exists()

        assert run("train", cfg) == 0
        assert (run_dir / "model" / "original.ckpt").exists()

        assert run("delete", cfg) == 0
        assert (run_dir / "split" / "task.json").exists()

        assert main(["unlearn", "-c", str(cfg), "--method", "cep"]) == 0
        timing = (run_dir / "unlearn-cep" / "timing.csv").read_text()
        assert "prune_seconds" in timing and "finetune_seconds" in timing

        assert main(["unlearn", "-c", str(cfg), "--method", "finetune"]) == 0
        assert main(["unlearn", "-c", str(cfg), "--method", "stale"]) == 0

        assert main(["eval", "-c", str(cfg), "--method", "cep"]) == 0
        report = run_dir / "eval-cep" / "report.csv"
        assert report.exists()
        header, *lines = report.read_text().splitlines()
        assert header == "query_id,type,c,c_hat,c_hat_sem,paths,qerr,excluded_reason"
        # 64 paths is under one sampling round, so every query runs them all,
        # except one with an empty constraint, which is exactly 0 unsampled
        model = load_checkpoint(run_dir / "unlearn-cep" / "model.ckpt")
        oq, cq = _workloads(load_config(cfg), load_dataset(run_dir / "data"))
        queries = {("OQ", q.qid): q for q in oq} | {("CQ", q.qid): q for q in cq}
        assert lines
        for line in lines:
            qid, qtype, _, c_hat, _, paths = line.split(",")[:6]
            cons = model_constraints(model, queries[qtype, int(qid)])
            empty = not all(w.any() for w in cons.values())
            assert (paths, c_hat == "0.0") == (("0", True) if empty else ("64", c_hat == "0.0"))
        assert (run_dir / "eval-cep" / "summary.csv").exists()

        assert main(["eval", "-c", str(cfg), "--method", "stale"]) == 0
        assert run("report", cfg) == 0
        consolidated = (run_dir / "report" / "consolidated.md").read_text()
        assert "cep" in consolidated or "| stale |" in consolidated
        # wall-clock times live only in the timing file
        assert "seconds" not in consolidated
        timings = (run_dir / "report" / "timings.csv").read_text().splitlines()
        assert timings[0] == "method,stage,seconds"
        assert {ln.split(",")[0] for ln in timings[1:]} == {"cep", "finetune", "stale"}
        assert (run_dir / "report" / "convergence.csv").exists()

    def test_depth_two_chain_end_to_end(self, tmp_path):
        # hub -> orders -> customer: deleting customers orphans orders, and
        # through them hub rows, which only scopes holding orders lose
        db = chain_db(np.random.default_rng(5), n_hub=120, n_orders=12, n_customers=5)
        save_dataset(db, tmp_path / "ext")
        hub, orders, customer = db.tables
        bal = customer.column("bal")
        lo, hi = float(bal.min()), float(bal.min()) + 30.0
        cfg = write_config(tmp_path, dataset={"dir": str(tmp_path / "ext")},
                           task={"name": "A-1-1.0", "conditions": [
                               {"table": "customer", "column": "bal", "lo": lo, "hi": hi}]},
                           workload={"n_queries": 16, "num_samples": 64,
                                     "focus_columns": ["customer.bal"], "focus_prob": 0.5})
        for stage in ("gen-data", "train", "delete"):
            assert run(stage, cfg) == 0
        assert main(["unlearn", "-c", str(cfg), "--method", "cep"]) == 0
        assert main(["eval", "-c", str(cfg), "--method", "cep"]) == 0

        retained = [hub, orders, customer.take(np.flatnonzero((bal < lo) | (bal > hi)))]
        oq, cq = _workloads(load_config(cfg), db)
        queries = {("OQ", q.qid): q for q in oq} | {("CQ", q.qid): q for q in cq}
        assert any("customer" in q.scope for q in queries.values()) and cq
        with open(tmp_path / "run" / "eval-cep" / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(queries)
        for row in rows:
            q = queries[row["type"], int(row["query_id"])]
            assert float(row["c"]) == nested_loop_count(retained, db.joins, q)

    def test_task_on_join_key_reaches_eval(self, tmp_path):
        # the key is no model column, so the workload does not focus on it
        cfg = write_config(tmp_path, task={"name": "A-1-1.0", "conditions": [
            {"table": "fact", "column": "dim1_id", "value": 3}]})
        for stage in ("gen-data", "train", "delete"):
            assert run(stage, cfg) == 0
        assert main(["unlearn", "-c", str(cfg), "--method", "cep"]) == 0
        assert main(["eval", "-c", str(cfg), "--method", "cep"]) == 0
        assert "dim1_id" not in (tmp_path / "run" / "workload_oq.txt").read_text()

    def test_stage_ordering_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("train", cfg) == 3
        assert main(["unlearn", "-c", str(cfg), "--method", "cep"]) == 3

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"output_dir": "x"}))
        assert run("gen-data", path) == 2

    def test_missing_config_file(self, tmp_path):
        assert run("gen-data", tmp_path / "nope.yaml") == 2

    def test_bad_task_name(self, tmp_path):
        cfg = write_config(tmp_path, task={"name": "A-2-banana", "conditions": []})
        assert run("gen-data", cfg) == 2

    @pytest.mark.parametrize("condition,text", [
        ({"table": "fact", "column": "amount", "lo": 5000.0, "hi": 6000.0},
         "column='amount', value=None, lo=5000.0, hi=6000.0"),
        ({"table": "fact", "column": "status", "value": 12345},
         "column='status', value=12345, lo=None")])
    def test_condition_matching_no_row_exits_2_at_delete(self, tmp_path, capsys,
                                                        condition, text):
        # well-typed, so it loads; only the data shows that it deletes nothing
        cfg = write_config(tmp_path, task={"name": "A-1-1.0", "conditions": [condition]})
        assert run("gen-data", cfg) == 0
        assert run("delete", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "deletion condition Condition(table='fact'" in err
        assert text in err and "matches no row" in err
        assert not (tmp_path / "run" / "split").exists()


class TestConfigErrors:
    """A malformed config is a ConfigurationError from ``load_config`` and
    exit 2 with one error line, before any stage runs."""

    def check_rejected(self, path, capsys, match):
        with pytest.raises(ConfigurationError, match=match):
            load_config(path)
        assert run("gen-data", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (path.parent / "run").exists()

    @pytest.mark.parametrize("section", ["model", "cep", "workload", "datagen"])
    def test_unknown_section_key(self, tmp_path, capsys, section):
        path = write_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc[section]["epochz"] = 3
        path.write_text(yaml.safe_dump(doc))
        self.check_rejected(path, capsys, f"{section}.*epochz")

    def test_malformed_yaml(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("output_dir: x\nmodel: {epochs: [3\n")
        self.check_rejected(path, capsys, "not valid YAML")

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("epochs", -1), ("lr", 0.0), ("lr", "1e-3"),
        ("beta1", 1.0), ("beta1", -3.0), ("beta2", 1.5), ("eps", -1.0), ("eps", 0.0)])
    def test_model_value_out_of_range(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["model"][field] = value
        path.write_text(yaml.safe_dump(doc))
        self.check_rejected(path, capsys, field)

    @pytest.mark.parametrize("task,match", [
        ("A-1-1.0", "'task' must be a mapping"),
        ({"name": 12, "conditions": []}, "needs a name")])
    def test_malformed_task_section(self, tmp_path, capsys, task, match):
        self.check_rejected(write_config(tmp_path, task=task), capsys, match)

    @pytest.mark.parametrize("condition,match", [
        ({"column": "amount", "lo": 30.0, "hi": 60.0}, "naming a table"),
        ({"table": "fact", "lo": 30.0, "hi": 60.0}, "needs a column"),
        ("fact.amount", "naming a table"),
        ({"table": "fact", "column": "amount", "lo": "a", "hi": 800.0}, "lo must be a number"),
        ({"table": "fact", "column": "status", "value": [1, 2]}, "value must be a number"),
        ({"table": "fact", "column": "amount", "lo": 900.0, "hi": 100.0}, "lo 900.0 exceeds"),
        ({"table": "fact", "column": "status", "value": "x"}, "value must be a number")])
    def test_malformed_task_condition(self, tmp_path, capsys, condition, match):
        path = write_config(tmp_path, task={"name": "A-1-1.0", "conditions": [condition]})
        self.check_rejected(path, capsys, match)

    def test_dataset_without_dir(self, tmp_path, capsys):
        path = write_config(tmp_path, dataset={"path": "data"})
        self.check_rejected(path, capsys, "dataset.*dir")

    @pytest.mark.parametrize("overrides,match", [
        ({"output_dir": 5}, "output_dir must be a path"),
        ({"output_dir": None}, "output_dir must be a path"),
        ({"output_dir": ["run"]}, "output_dir must be a path"),
        ({"dataset": {"dir": 7}}, "dataset.*dir")])
    def test_path_that_is_not_a_string(self, tmp_path, capsys, overrides, match):
        self.check_rejected(write_config(tmp_path, **overrides), capsys, match)

    @pytest.mark.parametrize("overrides,match", [
        ({"seeds": {**SEEDS, "model": -2}}, "seeds.model"),
        ({"seeds": {**SEEDS, "workload": -1}}, "seeds.workload"),
        ({"seeds": {**SEEDS, "eval": 1.5}}, "seeds.eval"),
        ({"seeds": {**SEEDS, "data": True}}, "seeds.data"),
        ({"seeds": {**SEEDS, "model": "3"}}, "seeds.model"),
        ({"seeds": [1, 2, 3, 4]}, "seeds must be a mapping"),
        ({"join_cap": 0}, "join_cap"), ({"join_cap": 2.5}, "join_cap"),
        ({"join_cap": False}, "join_cap")])
    def test_bad_seeds_or_join_cap(self, tmp_path, capsys, overrides, match):
        # default_rng rejects a negative seed only at the stage that draws
        # with it, after the stages before it have run
        self.check_rejected(write_config(tmp_path, **overrides), capsys, match)

    @pytest.mark.parametrize("name,old,new,match", [
        ("schema.txt", "column status categorical", "column status",
         r"schema.txt:\d+: malformed line 'column status'"),
        ("schema.txt", "numerical 0.0 1000.0", "numerical 0.0", r"schema.txt:\d+: malformed"),
        ("schema.txt", "join fact.dim1_id dim1.id", "join fact.dim1_id",
         r"schema.txt:\d+: malformed"),
        ("schema.txt", "join fact.dim1_id dim1.id", "join fact.dim1_id dimX.id",
         r"schema.txt:\d+: join names unknown table 'dimX'"),
        ("fact.csv", "\n", "\n0,0,0,0,abc\n", r"fact.csv:2: column 'amount'"),
        ("fact.csv", "\n", "\n0,0,0,0,nan\n", r"fact.amount: value outside"),
        ("fact.csv", "\n", "\n0,0,1.5,0,1.0\n", r"fact.csv: column 'status' .* not an integer"),
        ("dim1.csv", None, "", r"dim1.csv: header \[\]"),
        ("fact__status.dict", "0,", "zero,", r"fact__status.dict:1: "),
        ("fact.csv", "\n", "\n0,0,0,0,1.0\n\n",
         r"fact.csv:3: column 'dim1_id' needs a number in every row"),
        ("dim2.csv", None, "id,grp2,val2\n0,0,1.0\n1,0,1.0\n2,0,1.0\n3,0,1.0\n\n",
         r"dim2.csv:6: column 'id' needs a number in every row"),
        ("dim2.csv", None, "id,grp2,val2\r0,0,1.0\r\r1,0,1.0\r2,0,1.0\r3,0,1.0\r",
         r"dim2.csv:3: column 'id' needs a number in every row"),
        ("fact.csv", "\n", "\n0,0,0,0,1.0,7\n", r"fact.csv:2: row has 6 cells, the header has 5"),
        ("dim2.csv", None, "id,grp2,val2\n0,0,1.0,9\n1,0,1.0,9\n2,0,1.0,9\n3,0,1.0,9\n",
         r"dim2.csv:2: row has 4 cells, the header has 3"),
        ("fact.csv", "\n", "\n0,0,0,0,1_000\n", r"fact.csv:2: column 'amount'"),
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        ("fact.csv", "\n", "\n0,0,0,0,1.0\udcff\n", r"fact.csv: not UTF-8 text"),
        # past the first 8 KiB, so the header read succeeds and loadtxt meets it
        ("dim2.csv", None, "id,grp2,val2\n" + "0,0,1.0\n" * 1100 + "1,0,1.0\udcff\n",
         r"dim2.csv: not UTF-8 text"),
        ("fact__status.dict", "0,", "0\udcff,", r"fact__status.dict: not UTF-8 text"),
        ("schema.txt", "table fact", "table fact\udcff", r"schema.txt: not UTF-8 text"),
    ], ids=["column-fields", "numeric-bound", "join-fields", "join-unknown-table",
            "csv-cell", "csv-nan", "csv-fractional-code", "csv-empty", "dict-code",
            "csv-blank-line", "csv-trailing-blank-line", "csv-blank-line-cr", "csv-extra-cell",
            "csv-extra-cell-every-row", "csv-underscore", "csv-not-utf8", "csv-body-not-utf8",
            "dict-not-utf8", "schema-not-utf8"])
    def test_malformed_dataset_dir(self, tmp_path, capsys, name, old, new, match):
        ext = tmp_path / "ext"
        save_dataset(gen_star_schema(DataGenConfig(hub_rows=50, dim_rows=(5, 4))), ext)
        f = ext / name
        text = new if old is None else f.read_text().replace(old, new, 1)
        f.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises((ConfigurationError, ValidationError), match=match):
            load_dataset(ext)
        assert run("gen-data", write_config(tmp_path, dataset={"dir": str(ext)})) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("edits,match", [
        # fact -> dim1 and dim2 -> dim1: dim2 is reached only against its key
        ([("schema.txt", swap("join fact.dim2_id dim2.id", "join dim2.id dim1.id"))],
         r"not connected: \['dim2'\] not reached from hub 'fact'"),
        # the cycle dim1 -> dim2 -> dim1 is reached from the hub, dim3 is not
        ([("schema.txt", swap("join fact.dim2_id dim2.id\njoin fact.dim3_id dim3.id",
                              "join dim1.grp1 dim2.id\njoin dim2.grp2 dim1.id"))],
         r"not connected: \['dim3'\]"),
        # a cycle between dim2 and dim3 that the hub does not reach
        ([("schema.txt", swap("join fact.dim2_id dim2.id\njoin fact.dim3_id dim3.id",
                              "join dim2.id dim3.id\njoin dim3.id dim2.id"))],
         r"not connected: \['dim2', 'dim3'\]"),
        ([("schema.txt", swap("join fact.dim2_id dim2.id", "join dim2.id fact.dim1_id"))],
         "hub must not be referenced as a parent"),
        ([("schema.txt", swap("table dim1\ncolumn id categorical",
                              "table dim1\ncolumn id numerical 0.0 10.0"))],
         r"join key dim1\.id is not categorical"),
        ([("schema.txt", swap("column dim1_id categorical",
                              "column dim1_id numerical 0.0 10.0"))],
         r"join key fact\.dim1_id is not categorical"),
        # the first fact row references dim1 row 4, which is gone
        ([("fact.csv", lambda text: re.sub(r"\n\d+,", "\n4,", text, count=1)),
          ("dim1.csv", lambda text: text[:text.rindex("\n4,") + 1])],
         r"incomplete FK coverage: fact\.dim1_id -> dim1\.id"),
        ([("dim1.csv", swap("\n1,", "\n0,"))], r"dim1\.id is not unique"),
        # cells come first: a key code outside its domain is no lookup index
        ([("dim1.csv", swap("\n1,", "\n99,"))], r"dim1\.id: code outside 0\.\.4"),
        ([("fact.csv", lambda text: re.sub(r"\n\d+,", "\n-1,", text, count=1))],
         r"fact\.dim1_id: code outside 0\.\.4"),
    ], ids=["against-foreign-key", "reached-dimension-cycle", "unreached-dimension-cycle",
            "hub-as-parent", "numerical-primary-key", "numerical-foreign-key",
            "code-without-primary-key-row", "primary-key-not-unique", "primary-key-cell",
            "foreign-key-cell"])
    def test_schema_contract_exits_2_at_gen_data(self, tmp_path, capsys, edits, match):
        # every join the schema allows can be built, or gen-data refuses it
        ext = tmp_path / "ext"
        save_dataset(gen_star_schema(DataGenConfig(hub_rows=50, dim_rows=(5, 4, 3),
                                                   dim_cat_cards=(3, 3, 3))), ext)
        for name, edit in edits:
            (ext / name).write_text(edit((ext / name).read_text()))
        with pytest.raises(ValidationError, match=match):
            load_dataset(ext)
        assert run("gen-data", write_config(tmp_path, dataset={"dir": str(ext)})) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert re.search(match, err)
        assert not (tmp_path / "run" / "data").exists()

    @pytest.mark.parametrize("field,value", [
        ("n_queries", 0), ("max_predicates", 0), ("num_samples", 0), ("num_samples", 2.5),
        ("dim_scope_prob", 1.5), ("focus_prob", -0.1), ("focus_columns", ["amount"]),
        ("focus_columns", "fact.amount")])
    def test_workload_value_out_of_range(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["workload"][field] = value
        path.write_text(yaml.safe_dump(doc))
        self.check_rejected(path, capsys, field)

    @pytest.mark.parametrize("focus,match", [
        ("nope.amount", "unknown table 'nope'"), ("fact.nope", "unknown column 'nope'"),
        ("fact.dim1_id", "'fact.dim1_id' is a join key")])
    def test_focus_column_not_an_attribute_exits_2_at_gen_data(self, tmp_path, capsys,
                                                               focus, match):
        # well-formed, so it loads; gen-data is the first stage that knows the schema
        path = write_config(tmp_path, workload={"focus_columns": [focus]})
        load_config(path)
        assert run("gen-data", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err and "Traceback" not in err
        assert not (tmp_path / "run" / "data" / "schema.txt").exists()

    @pytest.mark.parametrize("field,value", [
        ("hub_rows", 1.5), ("hub_rows", 0), ("dim_rows", [30, 0]), ("hub_cat_cards", [0]),
        ("dim_cat_cards", 5), ("numeric_range", [0.0]), ("numeric_range", [0.0, float("inf")]),
        ("zipf_s", float("nan")), ("seed", -1), ("profile", "banana")])
    def test_datagen_value_out_of_range(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["datagen"][field] = value
        path.write_text(yaml.safe_dump(doc))
        self.check_rejected(path, capsys, field)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("finetune_epochs", -1), ("sampling_iterations", 2.5),
        ("domain_prune", "no"), ("gap_threshold", 2.0)])
    def test_cep_value_out_of_range(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["cep"][field] = value
        path.write_text(yaml.safe_dump(doc))
        self.check_rejected(path, capsys, field)

    @pytest.mark.parametrize("field,value", [("freeze_pruned", True),
                                             ("loss_mode", "joint_aggregated")])
    def test_removed_cep_key(self, tmp_path, capsys, field, value):
        self.check_removed_key(tmp_path, capsys, "cep", field, value)

    @pytest.mark.parametrize("section,field,value", [
        ("model", "column_order", [2, 0, 1]), ("datagen", "unique_categoricals", "yes")])
    def test_removed_key(self, tmp_path, capsys, section, field, value):
        self.check_removed_key(tmp_path, capsys, section, field, value)

    def check_removed_key(self, tmp_path, capsys, section, field, value):
        # a config that still sets a removed option is named, not run without it
        path = write_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc[section][field] = value
        path.write_text(yaml.safe_dump(doc))
        self.check_rejected(path, capsys, f"{section}.*unknown key '{field}'")

    @pytest.mark.parametrize("flag", [["--finetune-epochs", "-1"], ["--alpha", "1.5"],
                                      ["--ns", "0"]])
    def test_bad_unlearn_override_exits_2(self, tmp_path, capsys, flag):
        # checked before any stage output is read, so no earlier stage is needed
        path = write_config(tmp_path)
        assert main(["unlearn", "-c", str(path), "--method", "cep", *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_query_types_exits_2(self, tmp_path, capsys):
        # argparse's choices are the one check of --query-types
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "-c", str(path), "--method", "cep", "--query-types", "all"])
        assert exc.value.code == 2
        assert "invalid choice: 'all'" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_loader_reads_configs_as_python_loader(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docs = [readme.split("```yaml\n", 1)[1].split("```", 1)[0],
            write_config(tmp_path).read_text(),
            write_config(tmp_path, dataset={"dir": "data"}).read_text(),
            "model: {lr: 1e-3, dropout: 1.0e-1, epochs: 0x1f}\nseeds: ~\n"]
    for text in docs:
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


class TestDeterminismAndAblation:
    def prep(self, tmp_path):
        cfg = write_config(tmp_path)
        run("gen-data", cfg)
        run("train", cfg)
        run("delete", cfg)
        return cfg, tmp_path / "run"

    def test_ablation_toggles_match_finetune(self, tmp_path):
        cfg, run_dir = self.prep(tmp_path)
        assert main(["unlearn", "-c", str(cfg), "--method", "finetune"]) == 0
        assert main(["unlearn", "-c", str(cfg), "--method", "cep",
                     "--no-domain-prune", "--no-sensitivity-prune"]) == 0
        a = (run_dir / "unlearn-finetune" / "model.ckpt").read_bytes()
        b = (run_dir / "unlearn-cep" / "model.ckpt").read_bytes()
        assert a == b

    def test_rerun_byte_identical_outputs(self, tmp_path):
        cfg, run_dir = self.prep(tmp_path)
        main(["unlearn", "-c", str(cfg), "--method", "cep"])
        main(["eval", "-c", str(cfg), "--method", "cep"])
        first_summary = (run_dir / "eval-cep" / "summary.csv").read_bytes()
        first_ckpt = (run_dir / "unlearn-cep" / "model.ckpt").read_bytes()
        main(["unlearn", "-c", str(cfg), "--method", "cep"])
        main(["eval", "-c", str(cfg), "--method", "cep"])
        assert (run_dir / "eval-cep" / "summary.csv").read_bytes() == first_summary
        assert (run_dir / "unlearn-cep" / "model.ckpt").read_bytes() == first_ckpt

    def test_manifest_contents(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg, run_dir = self.prep(tmp_path)
        assert main(["unlearn", "-c", str(cfg), "--method", "finetune"]) == 0
        doc = json.loads((run_dir / "model" / "manifest.json").read_text())
        assert doc["command"] == "train"
        assert set(doc["seeds"]) == {"data", "model", "workload", "eval"}
        assert "config_sha256" in doc and "versions" in doc
        # the training stages record what their numbers were computed with
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        for stage in ("model", "unlearn-finetune"):
            compute = json.loads((run_dir / stage / "manifest.json").read_text())["compute"]
            assert compute["dtype"] == "float32"
            assert compute["blas"] == {"name": blas["name"], "version": blas["version"]}
            assert compute["threads"]["OPENBLAS_NUM_THREADS"] == "1"
            assert compute["threads"]["MKL_NUM_THREADS"] is None
            assert compute["nproc"] >= 1

    def test_config_hash_names_the_settings_not_the_output_dir(self, tmp_path):
        digests = []
        for sub, overrides in (("a", {}), ("b", {}), ("c", {"seeds": {**SEEDS, "eval": 9}})):
            (tmp_path / sub).mkdir()
            cfg = load_config(write_config(tmp_path / sub, **overrides))
            write_manifest(cfg.output_dir, "gen-data", cfg)
            doc = json.loads((cfg.output_dir / "manifest.json").read_text())
            digests.append(doc["config_sha256"])
        # a and b differ only in output_dir; c also in one seed
        assert digests[0] == digests[1] != digests[2]

    def test_alpha_and_ns_flags(self, tmp_path):
        cfg, run_dir = self.prep(tmp_path)
        assert main(["unlearn", "-c", str(cfg), "--method", "cep",
                     "--alpha", "0.1", "--ns", "2", "--no-domain-prune"]) == 0
        assert (run_dir / "unlearn-cep" / "model.ckpt").exists()
        # the manifest records the cep config that ran: the file's, overridden
        doc = json.loads((run_dir / "unlearn-cep" / "manifest.json").read_text())
        assert doc["cep"] == {**asdict(CepConfig()), "alpha": 0.1, "sampling_iterations": 2,
                              "batch_size": 32, "finetune_epochs": 2, "domain_prune": False}

    def test_summary_exclusions_are_per_query_type(self, tmp_path):
        cfg, run_dir = self.prep(tmp_path)
        assert main(["eval", "-c", str(cfg), "--method", "stale"]) == 0
        with open(run_dir / "eval-stale" / "report.csv", newline="") as fh:
            report = list(csv.DictReader(fh))
        with open(run_dir / "eval-stale" / "summary.csv", newline="") as fh:
            summary = {row["qtype"]: row for row in csv.DictReader(fh)}
        assert set(summary) == {"ALL", "OQ", "CQ"}
        for qtype, row in summary.items():
            mine = [r for r in report if qtype in ("ALL", r["type"])]
            for reason in ("model-zero", "true-zero"):
                column = "excluded_" + reason.replace("-", "_")
                assert int(row[column]) == sum(r["excluded_reason"] == reason for r in mine)
        # the stale model keeps mass on the deleted rows: both query types
        # hold true-zero queries, so no row repeats the total
        assert 0 < int(summary["OQ"]["excluded_true_zero"]) < \
            int(summary["ALL"]["excluded_true_zero"])

    def test_malformed_checkpoint_exits_4(self, tmp_path, capsys):
        cfg, run_dir = self.prep(tmp_path)

        def drop_config(meta, theta):
            del meta["config"]
            return meta, theta

        rewrite_checkpoint(run_dir / "model" / "original.ckpt", drop_config)
        assert main(["unlearn", "-c", str(cfg), "--method", "stale"]) == 4
        err = capsys.readouterr().err
        assert "malformed checkpoint metadata" in err and "Traceback" not in err

    @pytest.mark.parametrize("case,match", [
        ("unknown_dtype", "malformed checkpoint metadata"),
        ("float64_payload", "array bytes do not match"),
        ("version_5", "unsupported checkpoint version 5")])
    def test_bad_checkpoint_dtype_or_version_exits_4(self, tmp_path, capsys, case, match):
        cfg, run_dir = self.prep(tmp_path)
        ckpt = run_dir / "model" / "original.ckpt"
        if case == "version_5":   # the float64-only layout, with a fresh digest
            body = bytearray(ckpt.read_bytes()[:-8])
            body[4:8] = struct.pack("<I", 5)
            ckpt.write_bytes(bytes(body) + hashlib.sha256(body).digest()[:8])
        elif case == "unknown_dtype":
            rewrite_checkpoint(ckpt, lambda meta, theta: ({**meta, "dtype": "float16"}, theta))
        else:   # float32 in the metadata, eight bytes per value in the payload
            rewrite_checkpoint(ckpt, lambda meta, theta: (meta, theta.astype(np.float64)))
        assert main(["unlearn", "-c", str(cfg), "--method", "finetune"]) == 4
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    def test_retrain_method(self, tmp_path):
        cfg, run_dir = self.prep(tmp_path)
        assert main(["unlearn", "-c", str(cfg), "--method", "retrain"]) == 0
        timing = (run_dir / "unlearn-retrain" / "timing.csv").read_text()
        assert "train_seconds" in timing

    def test_no_stage_reads_the_split_back(self, tmp_path):
        # unlearn and eval re-derive the split from data/ and the config's
        # task, so what delete wrote under split/ may be anything, and the
        # split/deleted/ of an older build is ignored
        cfg, run_dir = self.prep(tmp_path)
        assert not (run_dir / "split" / "deleted").exists()

        def run_and_read():
            assert main(["unlearn", "-c", str(cfg), "--method", "cep"]) == 0
            assert main(["eval", "-c", str(cfg), "--method", "cep"]) == 0
            return {f.relative_to(run_dir): f.read_bytes() for f in run_dir.rglob("*")
                    if f.is_file() and f.name != "timing.csv"
                    and f.relative_to(run_dir).parts[0] != "split"}

        untouched = run_and_read()
        (run_dir / "split" / "deleted").mkdir()
        for half in ("retained", "deleted"):
            (run_dir / "split" / half / "fact.csv").write_text("garbage\n")
        assert run_and_read() == untouched

    def test_unlearn_does_not_read_task_json(self, tmp_path):
        # every stage takes the task from the config; task.json only marks
        # that `delete` ran, so its contents may be anything
        cfg, run_dir = self.prep(tmp_path)
        task_json = run_dir / "split" / "task.json"
        doc = json.loads(task_json.read_text())
        del doc["conditions"]
        task_json.write_text(json.dumps(doc))
        assert main(["unlearn", "-c", str(cfg), "--method", "retrain"]) == 0
