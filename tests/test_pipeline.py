import hashlib
import importlib.util
import json
import os
import stat
from collections import Counter
from pathlib import Path

import pytest

import fundmob
from fundmob import ackminer, corpus, mobility, periods
from fundmob.cli import main
from fundmob.pipeline import ConfigError, PipelineConfig, run_pipeline

from .conftest import DATA_DIR

# SHA-256 of each artifact of the demo corpus run with the stock configuration
DEMO_DIGESTS = {
    "funded_scholars.tsv": "56f16195a1b8185bb6753fb3d7a8343811430ad09d53ce2deb34c6ea1b57e1a6",
    "clusters.tsv": "2f1025c92aed8c0f75e6a453a539322d168bdc063a3af5dd5464358c5f48ddff",
    "mobility_assignments.tsv": "fcdb33adba676cebf15067b82cf5cbbab9d133a1b41dd05ddcea614b704646aa",
    "mobility_flows.tsv": "c06b3fe9c3716430847f0bdd2cbe1988d312dcaf849acf6d421c45467e2f8ca3",
    "top_destinations.tsv": "e803155d85179a2d46ff56304f785d9326d9afab1da320950c27c455ae032863",
    "period_labels.tsv": "59ca77764982698c827b6c649f43c7a551b7752f511a2ec9aeb21dda0c9cec6d",
    "pp_ic.tsv": "4a7e9eeb373fb23ae1b8c0e80d4acadf27ef3fceb166428c40efb9e34e7c9fcb",
    "field_distribution.tsv": "ea3c260e69d1ff688e72dfed25d55797f09b309991988ad46260bc4bbec7af27",
    "temporal.tsv": "b738eca9b22f8c01f10418e037c25dda28fa2a6189ff5b234759f0e2bdb68f97",
    "indicators.json": "c958ae799f336d0539e393a67ed6b2cc6abf884e3329d521611f36f83c70861f",
    "manifest.json": "e7fa149096a566b7a6be5699aaa9257db3078ab7f481234f4f8f3eab773a3a60",
}
ARTIFACTS = list(DEMO_DIGESTS)


def demo_config(data_dir, out_dir, **overrides):
    kwargs = dict(
        input=data_dir / "demo" / "corpus.jsonl",
        lexicon=data_dir / "lexicon_csc.txt",
        surnames=data_dir / "surnames_cn.txt",
        field_map=data_dir / "field_map.tsv",
        country_aliases=data_dir / "country_aliases.tsv",
        disambig_config=data_dir / "disambig_weights.cfg",
        out_dir=out_dir,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def config_problems(config):
    """The problems ``run_pipeline`` reports for ``config``; none when it runs."""
    try:
        run_pipeline(config)
    except ConfigError as exc:
        return exc.problems
    return []


class TestValidateConfig:
    def test_valid_config_has_no_problems(self, data_dir, tmp_path):
        assert config_problems(demo_config(data_dir, tmp_path / "out")) == []

    def test_two_missing_paths_two_problems(self, data_dir, tmp_path):
        config = demo_config(
            data_dir, tmp_path / "out",
            lexicon=tmp_path / "missing_lexicon.txt",
            surnames=tmp_path / "missing_surnames.txt",
        )
        problems = config_problems(config)
        assert len(problems) == 2

    def test_unwritable_out_dir_named(self, data_dir, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory write bits")
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            problems = config_problems(demo_config(data_dir, locked / "out"))
            assert len(problems) == 1
            assert str(locked) in problems[0]
        finally:
            locked.chmod(stat.S_IRWXU)

    def test_out_dir_may_not_exist_yet(self, data_dir, tmp_path):
        config = demo_config(data_dir, tmp_path / "a" / "b" / "c")
        assert config_problems(config) == []

    def test_missing_lexicon_raises_config_error(self, data_dir, tmp_path):
        config = demo_config(data_dir, tmp_path / "out",
                             lexicon=tmp_path / "nope.txt")
        with pytest.raises(ConfigError):
            run_pipeline(config)


class TestRunPipeline:
    def test_demo_produces_all_artifacts(self, data_dir, tmp_path):
        out = tmp_path / "out"
        manifest = run_pipeline(demo_config(data_dir, out))
        for name in ARTIFACTS:
            assert (out / name).is_file(), name
        written = json.loads((out / "manifest.json").read_text())
        assert written == manifest

    def test_empty_corpus_exits_cleanly_with_zero_counts(self, data_dir, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out"
        manifest = run_pipeline(demo_config(data_dir, out, input=empty))
        stages = manifest["stages"]
        assert stages["records_in"] == 0
        assert stages["funded_records"] == 0
        assert stages["clusters"] == 0
        for name in ARTIFACTS:
            assert (out / name).is_file(), name

    def test_no_funded_records_warns_and_continues(self, data_dir, tmp_path, caplog):
        corpus = tmp_path / "nofund.jsonl"
        corpus.write_text(json.dumps({
            "pub_id": "q1", "title": "t", "pub_year": 2015, "doc_type": "Article",
            "authors": [{"position": 1, "full_name": "Doe, Jan",
                         "last_name": "Doe", "first_name": "Jan"}],
        }) + "\n")
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="fundmob"):
            manifest = run_pipeline(demo_config(data_dir, out, input=corpus))
        assert manifest["stages"]["funded_records"] == 0
        assert any("no funder-acknowledging" in m for m in caplog.messages)

    def test_parse_errors_counted_not_fatal(self, data_dir, tmp_path):
        corpus = tmp_path / "mixed.jsonl"
        good = (data_dir / "demo" / "corpus.jsonl").read_text().splitlines()[0]
        corpus.write_text(good + "\n{broken\n")
        manifest = run_pipeline(demo_config(data_dir, tmp_path / "out", input=corpus))
        assert manifest["stages"]["records_in"] == 1
        assert manifest["stages"]["parse_errors"] == 1

    def test_undecodable_byte_and_lone_surrogate_are_parse_errors(self, data_dir, tmp_path):
        good = (data_dir / "demo" / "corpus.jsonl").read_bytes().splitlines()
        record = json.loads(good[1])
        record["pub_id"] = "\ud800"
        corpus = tmp_path / "bytes.jsonl"
        corpus.write_bytes(b"\n".join([
            good[0], good[1].replace(b"Article", b"Art\xffcle"), json.dumps(record).encode(), b"",
        ]))
        manifest = run_pipeline(demo_config(data_dir, tmp_path / "out", input=corpus))
        assert manifest["stages"]["records_in"] == 1
        assert manifest["stages"]["parse_errors"] == 2

    def test_manifest_conservation(self, data_dir, tmp_path):
        manifest = run_pipeline(demo_config(data_dir, tmp_path / "out"))
        stages = manifest["stages"]
        # identified authorships cannot exceed the authorships on
        # funder-acknowledging records (all demo funded records list the
        # funder in funding_orgs, so the bound is computable directly)
        funded_authorships = sum(
            len(record["authors"])
            for line in (data_dir / "demo" / "corpus.jsonl").read_text().splitlines()
            for record in [json.loads(line)]
            if "China Scholarship Council" in record["funding_orgs"]
            and record["doc_type"] in ("Article", "Review")
        )
        assert stages["identified_authorships"] <= funded_authorships
        assert stages["identified_authorships"] <= stages["authorships_total"]
        assert stages["identified_records"] <= stages["funded_records"]
        assert (
            sum(stages["assignments_by_rule"].values())
            == stages["chinese_scholar_clusters"]
        )
        assert sum(stages["labels_by_class"].values()) == stages["scholar_paper_pairs"]


class TestCli:
    def common_args(self, data_dir, out_dir):
        return [
            "--input", str(data_dir / "demo" / "corpus.jsonl"),
            "--lexicon", str(data_dir / "lexicon_csc.txt"),
            "--surnames", str(data_dir / "surnames_cn.txt"),
            "--field-map", str(data_dir / "field_map.tsv"),
            "--country-aliases", str(data_dir / "country_aliases.tsv"),
            "--disambig-config", str(data_dir / "disambig_weights.cfg"),
            "--out-dir", str(out_dir),
        ]

    def test_cli_runs_demo(self, data_dir, tmp_path, capsys):
        code = main(self.common_args(data_dir, tmp_path / "out"))
        assert code == 0
        assert "12 records in" in capsys.readouterr().out

    def test_cli_missing_lexicon_is_config_error(self, data_dir, tmp_path, capsys):
        args = self.common_args(data_dir, tmp_path / "out")
        args[args.index("--lexicon") + 1] = str(tmp_path / "gone.txt")
        code = main(args)
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_cli_config_content_errors_exit_2_naming_every_file(self, data_dir, tmp_path, capsys):
        # in the order the pipeline loads them
        bad = {
            "--country-aliases": "# raw<TAB>code\nGermany DE\n",
            "--lexicon": "# no surface forms\n",
            "--surnames": "\n",
            "--field-map": "phys\tPhysics\nchem Chemistry\n",
            "--disambig-config": "email = ten\n",
            "--overrides": "W1\tx\tW2\t1\tMERGE\n",
        }
        args = self.common_args(data_dir, tmp_path / "out") + ["--overrides", ""]
        for flag, text in bad.items():
            path = tmp_path / flag.strip("-")
            path.write_text(text)
            args[args.index(flag) + 1] = str(path)
        code = main(args)
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == len(bad)
        for flag, error in zip(bad, errors):
            assert error.startswith("config error: ")
            assert str(tmp_path / flag.strip("-")) in error
        assert "line 2" in errors[0] and "line 2" in errors[3]
        assert "line 1" in errors[4] and "line 1" in errors[5]
        assert not (tmp_path / "out").exists()

    def test_cli_missing_file_hides_no_other_config_error(self, data_dir, tmp_path, capsys):
        weights = tmp_path / "weights.cfg"
        weights.write_text("email = ten\n")
        args = self.common_args(data_dir, tmp_path / "out") + ["--top-k", "0"]
        args[args.index("--surnames") + 1] = str(tmp_path / "gone.txt")
        args[args.index("--disambig-config") + 1] = str(weights)
        code = main(args)
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert errors == [
            f"config error: surnames file does not exist: {tmp_path / 'gone.txt'}",
            f"config error: disambiguation config file {weights}: weight 'email' on line 1 is not a number: 'ten'",
            "config error: top-k must be positive, got 0",
        ]
        assert not (tmp_path / "out").exists()

    def test_cli_all_bad_lines_exit_nonzero(self, data_dir, tmp_path, capsys):
        corpus = tmp_path / "broken.jsonl"
        corpus.write_text("{nope\n{still nope\n")
        args = self.common_args(data_dir, tmp_path / "out")
        args[args.index("--input") + 1] = str(corpus)
        code = main(args)
        assert code == 1
        assert "input error" in capsys.readouterr().err

    def test_cli_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "fundmob" in capsys.readouterr().out

    def test_cli_flags_reach_the_manifest(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(self.common_args(data_dir, out)
                    + ["--whole-count", "--top-k", "3"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["whole_count"] is True
        assert manifest["config"]["top_k"] == 3


@pytest.fixture(scope="module")
def demo_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "out"
    run_pipeline(demo_config(DATA_DIR, out))
    return out


@pytest.mark.parametrize("name", ARTIFACTS)
def test_demo_artifact_is_byte_identical(demo_output, name):
    digest = hashlib.sha256((demo_output / name).read_bytes()).hexdigest()
    assert digest == DEMO_DIGESTS[name]


def test_funded_ids_are_computed_once_per_run(data_dir, tmp_path, monkeypatch):
    calls = []
    original = periods.funded_pub_ids

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(periods, "funded_pub_ids", counting)
    run_pipeline(demo_config(data_dir, tmp_path / "out"))
    assert len(calls) == 1


def test_only_funder_acknowledging_records_are_mined(data_dir, tmp_path, monkeypatch):
    mined = []
    original = ackminer.mine_record

    def counting(record, lexicon):
        mined.append(record.pub_id)
        return original(record, lexicon)

    monkeypatch.setattr(ackminer, "mine_record", counting)
    stages = run_pipeline(demo_config(data_dir, tmp_path / "out"))["stages"]
    assert (len(mined), stages["records_after_doc_filter"]) == (7, 11)
    assert len(set(mined)) == stages["funded_records"] == 7


def test_each_labeled_date_is_resolved_once_per_run(data_dir, tmp_path, monkeypatch):
    resolved = Counter()
    original = corpus.resolve_pub_date

    def counting(record):
        resolved[record.pub_id] += 1
        return original(record)

    monkeypatch.setattr(corpus, "resolve_pub_date", counting)
    monkeypatch.setattr(periods, "resolve_pub_date", counting)
    out = tmp_path / "out"
    run_pipeline(demo_config(data_dir, out))
    rows = (out / "period_labels.tsv").read_text().splitlines()[2:]
    assert set(resolved) == {row.split("\t")[0] for row in rows}
    assert set(resolved.values()) == {1}


def test_countries_are_collected_once_per_chinese_scholar(data_dir, tmp_path, monkeypatch):
    scholars = []
    original = mobility.collect_countries

    def counting(cluster, *args):
        scholars.append(cluster.cluster_id)
        return original(cluster, *args)

    monkeypatch.setattr(mobility, "collect_countries", counting)
    stages = run_pipeline(demo_config(data_dir, tmp_path / "out"))["stages"]
    assert len(scholars) == len(set(scholars)) == stages["chinese_scholar_clusters"]


def load_bench_tracing():
    """``bench/tracing.py``, which times the benchmark's traced run by
    swapping the fundmob attributes it names; loaded without importing
    the rest of the benchmark."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("fundmob_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = load_bench_tracing()
    missing = []
    for module, attr in tracing.patched_attributes():
        try:
            tracing.resolve(fundmob, module, attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_traced_span_is_reached_from_run_pipeline(data_dir, tmp_path):
    tracing = load_bench_tracing()
    tracer = tracing.Tracer()
    tracer.install(fundmob)
    try:
        run_pipeline(demo_config(data_dir, tmp_path / "out"))
    finally:
        tracer.uninstall()
    reached = {span[0] for span in tracer.spans}
    assert {span for _, _, span in tracing.SPANNED} <= reached


def test_overrides_flow_through_pipeline(data_dir, tmp_path):
    # splitting the direct edge between two of Chen's authorships does not
    # break the cluster (transitive email links remain), while splitting a
    # pair in a two-member component does
    overrides = tmp_path / "ov.tsv"
    overrides.write_text("P001\t2\tP002\t1\tSPLIT\n")
    baseline = run_pipeline(demo_config(data_dir, tmp_path / "base"))
    with_split = run_pipeline(
        demo_config(data_dir, tmp_path / "split", overrides=overrides)
    )
    assert with_split["stages"]["clusters"] == baseline["stages"]["clusters"]
    assert with_split["config"]["overrides_sha256"] is not None
