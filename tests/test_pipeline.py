import builtins
import dataclasses
import gc
import hashlib
import importlib.util
import io
import json
import os
import pkgutil
import re
import stat
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest

import fundmob
from fundmob import ackminer, corpus, disambig, indicators, mobility, periods
from fundmob.textnorm import normalize_text
from fundmob.cli import main
from fundmob.pipeline import (
    _CONFIG_FILES, ConfigError, PipelineConfig, _fmt, run_pipeline,
)

from .conftest import DATA_DIR, load_bench_gen

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
    "manifest.json": "031b65eeef8b30f185f4a108381acdf59c10ccf7fc807c2bf295c3e3fdcaefeb",
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

    @pytest.mark.parametrize("below", [(), ("sub",), ("sub", "deeper")])
    def test_out_dir_at_or_below_a_file_is_config_error(self, data_dir, tmp_path, capsys, below):
        blocker = tmp_path / "afile"
        blocker.write_text("kept\n")
        out_dir = blocker.joinpath(*below)
        problem = f"output path is not a directory: {blocker}"
        assert config_problems(demo_config(data_dir, out_dir)) == [problem]
        assert main(cli_args(data_dir, out_dir)) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {problem}"]
        assert blocker.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [blocker]

    def test_out_dir_may_not_exist_yet(self, data_dir, tmp_path):
        config = demo_config(data_dir, tmp_path / "a" / "b" / "c")
        assert config_problems(config) == []

    @pytest.mark.parametrize("field, value, problem", [
        ("top_k", 2.5, "top-k must be an integer, got 2.5"),
        ("top_k", "3", "top-k must be an integer, got '3'"),
        ("top_k", True, "top-k must be an integer, got True"),
        ("whole_count", "no", "whole-count must be a bool, got 'no'"),
        ("whole_count", 1, "whole-count must be a bool, got 1"),
    ])
    def test_bad_option_type_is_config_error(self, data_dir, tmp_path, field, value, problem):
        config = demo_config(data_dir, tmp_path / "out", **{field: value})
        assert config_problems(config) == [problem]
        assert not (tmp_path / "out").exists()

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


def cli_args(data_dir, out_dir):
    return [
        "--input", str(data_dir / "demo" / "corpus.jsonl"),
        "--lexicon", str(data_dir / "lexicon_csc.txt"),
        "--surnames", str(data_dir / "surnames_cn.txt"),
        "--field-map", str(data_dir / "field_map.tsv"),
        "--country-aliases", str(data_dir / "country_aliases.tsv"),
        "--disambig-config", str(data_dir / "disambig_weights.cfg"),
        "--out-dir", str(out_dir),
    ]


class TestCli:
    def test_cli_runs_demo(self, data_dir, tmp_path, capsys):
        code = main(cli_args(data_dir, tmp_path / "out"))
        assert code == 0
        assert "12 records in" in capsys.readouterr().out

    def test_cli_missing_lexicon_is_config_error(self, data_dir, tmp_path, capsys):
        args = cli_args(data_dir, tmp_path / "out")
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
        args = cli_args(data_dir, tmp_path / "out") + ["--overrides", ""]
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
        args = cli_args(data_dir, tmp_path / "out") + ["--top-k", "0"]
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

    def test_cli_key_given_twice_is_one_config_error(self, data_dir, tmp_path, capsys):
        fields = tmp_path / "fields.tsv"
        fields.write_text((data_dir / "field_map.tsv").read_text() + "phys\tPhysics\n")
        args = cli_args(data_dir, tmp_path / "out")
        args[args.index("--field-map") + 1] = str(fields)
        code = main(args)
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"config error: field map file {fields}: field_id 'phys' given twice")
        assert not (tmp_path / "out").exists()

    def test_cli_unreadable_config_file_is_config_error(self, data_dir, tmp_path, capsys, monkeypatch):
        # root reads a file whatever its mode bits, so the denial is simulated
        fields = data_dir / "field_map.tsv"
        read_text = Path.read_text

        def denying(path, *args, **kwargs):
            if path == fields:
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denying)
        code = main(cli_args(data_dir, tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: field map file {fields}: [Errno 13] Permission denied: '{fields}'",
        ]
        assert not (tmp_path / "out").exists()

    def test_cli_all_bad_lines_exit_nonzero(self, data_dir, tmp_path, capsys):
        corpus = tmp_path / "broken.jsonl"
        corpus.write_text("{nope\n{still nope\n")
        args = cli_args(data_dir, tmp_path / "out")
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
        code = main(cli_args(data_dir, out)
                    + ["--whole-count", "--top-k", "3"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["whole_count"] is True
        assert manifest["config"]["top_k"] == 3


@dataclasses.dataclass(frozen=True)
class KeyedFile:
    """One of the config files read as ``key<separator>value`` lines."""

    flag: str
    label: str
    load: Callable[[Path], object]
    #: a valid line, its key and separator, and what ``read`` finds for it
    key: str
    separator: str
    value: str
    read: Callable[[object], str]

    @property
    def line(self):
        return f"{self.key}{self.separator}{self.value}"


@pytest.fixture(params=[
    KeyedFile("--country-aliases", "country aliases", corpus.CountryAliases.load,
              "Germany", "\t", "DE", lambda aliases: aliases.normalize("germany")),
    KeyedFile("--field-map", "field map", mobility.load_field_map,
              "phys", "\t", "Physics", lambda mapping: mapping["phys"]),
    KeyedFile("--disambig-config", "disambiguation config", disambig.ScoringWeights.load,
              "email", " = ", "10", lambda weights: f"{weights.email:g}"),
], ids=lambda keyed: keyed.flag.strip("-"))
def keyed(request):
    return request.param


class TestKeyedConfigFormat:
    @pytest.mark.parametrize("template, message", [
        ("# header\n{key}{separator}\n", "malformed line 2"),
        ("{line}\t{value}\n", "on line 1 holds a tab"),
        ("{line}\n# again\n{line}\n", "given twice, on lines 1 and 3"),
    ], ids=["no-value", "tab-in-value", "key-twice"])
    def test_bad_line_is_named(self, keyed, tmp_path, template, message):
        path = tmp_path / "config"
        path.write_text(template.format(
            line=keyed.line, key=keyed.key, separator=keyed.separator, value=keyed.value
        ))
        with pytest.raises(ValueError, match=message):
            keyed.load(path)

    def test_leading_byte_order_mark_is_dropped(self, keyed, tmp_path):
        path = tmp_path / "config"
        path.write_bytes(b"\xef\xbb\xbf" + f"{keyed.line}\n".encode())
        assert keyed.read(keyed.load(path)) == keyed.value

    def test_bad_line_is_a_config_error(self, keyed, data_dir, tmp_path, capsys):
        path = tmp_path / "config"
        path.write_text(f"# header\n{keyed.key}{keyed.separator}\n")
        args = cli_args(data_dir, tmp_path / "out")
        args[args.index(keyed.flag) + 1] = str(path)
        assert main(args) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"config error: {keyed.label} file {path}: malformed line 2 ")


@pytest.fixture(scope="module")
def demo_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "out"
    run_pipeline(demo_config(DATA_DIR, out))
    return out


@pytest.mark.parametrize("name", ARTIFACTS)
def test_demo_artifact_is_byte_identical(demo_output, name):
    digest = hashlib.sha256((demo_output / name).read_bytes()).hexdigest()
    assert digest == DEMO_DIGESTS[name]


def test_config_sha256_is_the_hash_of_each_config_file(data_dir, tmp_path):
    config = demo_config(data_dir, tmp_path / "out")
    hashes = run_pipeline(config)["config"]
    for field, _, _ in _CONFIG_FILES:
        path = getattr(config, field)
        expected = None if path is None else hashlib.sha256(path.read_bytes()).hexdigest()
        assert hashes[f"{field}_sha256"] == expected


def test_config_sha256_is_the_hash_of_the_file_as_loaded(data_dir, tmp_path, monkeypatch):
    lexicon = tmp_path / "lexicon.txt"
    loaded = (data_dir / "lexicon_csc.txt").read_bytes()
    lexicon.write_bytes(loaded)
    cluster_corpus = disambig.cluster_corpus

    def rewriting(*args, **kwargs):
        lexicon.write_text("Deutsche Forschungsgemeinschaft\n")
        return cluster_corpus(*args, **kwargs)

    monkeypatch.setattr(disambig, "cluster_corpus", rewriting)
    manifest = run_pipeline(demo_config(data_dir, tmp_path / "out", lexicon=lexicon))
    assert lexicon.read_bytes() != loaded
    assert manifest["stages"]["funded_records"] == 7
    assert manifest["config"]["lexicon_sha256"] == hashlib.sha256(loaded).hexdigest()


def test_non_ascii_acknowledgments_give_the_ascii_artifacts(demo_output, data_dir, tmp_path):
    # funder names in funded acknowledgments rewritten character for
    # character: the letters re.IGNORECASE folds onto ASCII ones and str.lower
    # does not, and curly quotes for parentheses
    text = (data_dir / "demo" / "corpus.jsonl").read_text(encoding="utf-8")
    for ascii_text, non_ascii in [
        ("the China Scholarship Council (CSC)", "the CH\u0130NA Scholarship Counc\u0131l \u201cCSC\u201d"),
        ("the CSC scholarship", "the CSC \u017fcholarship"),
        ("the Chinese Scholarship Council", "the Ch\u0131nese \u017fCHOLARSHIP Council"),
    ]:
        assert text.count(ascii_text) == 1 and len(non_ascii) == len(ascii_text)
        text = text.replace(ascii_text, non_ascii)
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(text, encoding="utf-8")
    manifest = run_pipeline(demo_config(data_dir, tmp_path / "out", input=corpus_path))
    for name in ARTIFACTS:
        if name != "manifest.json":
            assert (tmp_path / "out" / name).read_bytes() == (demo_output / name).read_bytes(), name
    assert manifest["stages"] == json.loads((demo_output / "manifest.json").read_text())["stages"]


@pytest.mark.parametrize("prefix, suffix", [
    (b"", b""), (b"\xef\xbb\xbf", b""), (b"", b"\n{\"pub_id\": \"X\xff\"}\n"),
], ids=["plain", "byte-order-mark", "invalid-byte"])
def test_input_sha256_is_the_hash_of_the_corpus_bytes(data_dir, tmp_path, prefix, suffix):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_bytes(prefix + (data_dir / "demo" / "corpus.jsonl").read_bytes() + suffix)
    manifest = run_pipeline(demo_config(data_dir, tmp_path / "out", input=corpus_path))
    assert manifest["input_sha256"] == hashlib.sha256(corpus_path.read_bytes()).hexdigest()
    assert manifest["stages"]["parse_errors"] == (1 if suffix else 0)


def test_one_run_opens_the_corpus_once(data_dir, tmp_path, monkeypatch):
    # the manifest's input_sha256 comes from the bytes that parsing read
    corpus_path = (data_dir / "demo" / "corpus.jsonl").resolve()
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == corpus_path:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    run_pipeline(demo_config(data_dir, tmp_path / "out"))
    assert len(opened) == 1


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


@pytest.fixture
def collector():
    """Sets the cyclic garbage collector on or off, and puts back the
    setting the test began with when it ends."""
    began = gc.isenabled()

    def turn(on):
        (gc.enable if on else gc.disable)()

    yield turn
    turn(began)


@pytest.mark.parametrize("on", [True, False], ids=["on", "off"])
def test_collector_is_paused_for_a_run_and_then_restored(data_dir, tmp_path, monkeypatch, collector, on):
    seen = []
    original = periods.funded_pub_ids

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(periods, "funded_pub_ids", recording)
    collector(on)
    run_pipeline(demo_config(data_dir, tmp_path / "out"))
    assert (seen, gc.isenabled()) == ([False], on)


@pytest.mark.parametrize("lines, error", [
    (None, ConfigError),
    (["not json", "{}", '"a string"'], corpus.CorpusParseError),
], ids=["missing-input", "bad-lines-only"])
def test_collector_is_restored_when_a_run_raises(data_dir, tmp_path, collector, lines, error):
    path = tmp_path / "corpus.jsonl"
    if lines is not None:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    collector(True)
    with pytest.raises(error):
        run_pipeline(demo_config(data_dir, tmp_path / "out", input=path))
    assert gc.isenabled()


def test_a_run_leaves_no_cycles_that_grow_with_its_input(tmp_path, monkeypatch, collector):
    """The pause is safe while a run builds no reference cycles per
    record: what the collector finds after a run does not grow with the
    corpus. The collector stays off, so none of it is collected early."""
    gen = load_bench_gen(monkeypatch)
    collector(False)
    found = []
    for records in (100, 400):
        spec = dataclasses.replace(gen.SPECS["cn-skewed"], records=records)
        paths = gen.write(gen.generate("cn-skewed", 5, DATA_DIR, spec), tmp_path / str(records))
        config = demo_config(DATA_DIR, tmp_path / f"out{records}", input=paths["corpus"])
        gc.collect()
        run_pipeline(config)
        found.append(gc.collect())
    assert found[0] == found[1]


def test_parse_issues_leave_no_cycles(collector):
    """500 lines of each fault kind the parser reports leave the
    collector nothing to find."""
    good = json.dumps({
        "pub_id": "W0", "title": "T", "pub_year": 2015, "doc_type": "Article",
        "authors": [{"position": 1, "full_name": "Chen, Long", "last_name": "Chen"}],
    })
    bad = [
        good,                                       # duplicate pub_id
        good.replace("Article", "Letter"),          # a field's value is wrong
        good[:-1],                                  # invalid JSON
        "[" * 5_000 + "]" * 5_000,                  # nested too deeply
        good.replace("2015", "9" * 5_000),          # integer literal too long
        good.replace("W0", "W0\udcff"),             # not valid UTF-8
    ]
    collector(False)
    gc.collect()
    result = corpus.parse_corpus([good] + bad * 500)
    assert (len(result.records), len(result.errors)) == (1, 3_000)
    assert gc.collect() == 0


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


def test_every_library_use_name_in_the_readme_resolves():
    # every `module.name` reference of README's "Library use" section must
    # exist in the package, and so must every `Class.name` reference to a
    # class that fundmob exports
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    modules = {info.name for info in pkgutil.iter_modules(fundmob.__path__)}
    refs = re.findall(r"`(\w+)\.(\w+)", section)
    named = {ref for ref in refs if ref[0] in modules}
    assert len(named) >= 15
    missing = [
        f"{module}.{attr}" for module, attr in sorted(named)
        if not hasattr(importlib.import_module(f"fundmob.{module}"), attr)
    ]
    classes = {ref for ref in refs if isinstance(getattr(fundmob, ref[0], None), type)}
    assert ("FunderLexicon", "mentions") in classes
    missing += [f"{cls}.{attr}" for cls, attr in sorted(classes) if not hasattr(getattr(fundmob, cls), attr)]
    assert missing == []


def test_a_run_that_raises_leaves_no_manifest(data_dir, tmp_path, monkeypatch):
    """The manifest marks a complete run: a stale one is gone before the
    first table is written, and a run that raises writes none."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}\n", encoding="utf-8")

    def failing(*args, **kwargs):
        raise RuntimeError("indicators failed")

    monkeypatch.setattr(indicators, "pp_ic", failing)
    with pytest.raises(RuntimeError, match="indicators failed"):
        run_pipeline(demo_config(data_dir, out))
    assert not (out / "manifest.json").exists()
    # the tables of the stages before the failure were written
    assert (out / "mobility_flows.tsv").is_file()


@pytest.mark.parametrize("raises", [False, True], ids=["completes", "raises"])
def test_a_run_leaves_the_normalize_memo_empty(data_dir, tmp_path, monkeypatch, raises):
    """The memo is per run: no string a run normalized outlives it."""
    seen = []
    original = indicators.pp_ic

    def recording(*args, **kwargs):
        # the stages before indicators have filled the memo
        seen.append(normalize_text.cache_info().currsize)
        if raises:
            raise RuntimeError("indicators failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(indicators, "pp_ic", recording)
    normalize_text("a string normalized before the run")
    if raises:
        with pytest.raises(RuntimeError, match="indicators failed"):
            run_pipeline(demo_config(data_dir, tmp_path / "out"))
    else:
        run_pipeline(demo_config(data_dir, tmp_path / "out"))
    assert seen[0] > 1
    assert normalize_text.cache_info().currsize == 0


def test_every_traced_span_is_reached_from_run_pipeline(data_dir, tmp_path):
    """A traced demo run opens every span, computes the funded ids once,
    writes the pinned artifacts and leaves every swapped attribute as it
    found it. ``bench/tests`` checks the same of the benchmark corpora."""
    tracing = load_bench_tracing()
    before = {(m, a): tracing.resolve(fundmob, m, a) for m, a in tracing.patched_attributes()}
    tracer = tracing.Tracer()
    tracer.install(fundmob)
    try:
        out = tmp_path / "out"
        run_pipeline(demo_config(data_dir, out))
    finally:
        tracer.uninstall()
    reached = {span[0] for span in tracer.spans}
    assert {span for _, _, span in tracing.SPANNED} <= reached
    assert tracer.counters["periods.funded_ids_calls"] == 1
    assert all(tracing.resolve(fundmob, m, a) is f for (m, a), f in before.items())
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    assert digests == DEMO_DIGESTS


def test_stages_read_records_from_a_plain_dict(data_dir):
    # label_corpus and the mobility stages take any mapping of pub id to
    # record; given a plain dict they match the same call given a CorpusIndex
    docs = corpus.filter_documents(corpus.load_corpus(
        data_dir / "demo" / "corpus.jsonl",
        corpus.CountryAliases.load(data_dir / "country_aliases.tsv"),
        mobility.load_field_map(data_dir / "field_map.tsv"),
    ).records)
    lexicon = ackminer.FunderLexicon.load(data_dir / "lexicon_csc.txt")
    surnames = mobility.SurnameList.load(data_dir / "surnames_cn.txt")
    clusters = disambig.cluster_corpus(docs, disambig.ScoringWeights.load(data_dir / "disambig_weights.cfg"))
    funded_ids = periods.funded_pub_ids(docs, lexicon)
    plain = {record.pub_id: record for record in docs}
    index = disambig.CorpusIndex(docs)

    def both(call):
        result = call(plain)
        assert result == call(index)
        return result

    labeling = both(lambda records: periods.label_corpus(clusters, funded_ids, records))
    assignments = []
    for c in clusters:
        during = labeling.during.get(c.cluster_id, set())
        both(lambda records: mobility.modal_surname(c, records))
        both(lambda records: mobility.is_mainland_chinese_scholar(c, surnames, records))
        both(lambda records: mobility.collect_countries(c, records, during))
        both(lambda records: mobility.scholar_field_profile(during, records))
        assignments.append(both(lambda records: mobility.assign_mobility(c, records, during)))
    top = both(lambda records: mobility.top_destinations_by_field(assignments, records, labeling.during, 10))
    assert labeling.pairs and top.per_field


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


def test_override_naming_no_authorship_warns(data_dir, tmp_path, caplog):
    overrides = tmp_path / "ov.tsv"
    overrides.write_text("P999\t1\tP001\t1\tMERGE\nP001\t9\tP002\t1\tSPLIT\nP001\t2\tP002\t1\tSPLIT\n")
    baseline = tmp_path / "base"
    run_pipeline(demo_config(data_dir, baseline))
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="fundmob"):
        run_pipeline(demo_config(data_dir, out, overrides=overrides))
    assert [m for m in caplog.messages if "override" in m] == [
        "MERGE override of P999 1 and P001 1 names no authorship of the corpus; ignored",
        "SPLIT override of P001 9 and P002 1 names no authorship of the corpus; ignored",
    ]
    # the third one is known but changes no cluster, so only the manifest,
    # which holds the overrides hash, differs
    for name in ARTIFACTS:
        if name != "manifest.json":
            assert (out / name).read_bytes() == (baseline / name).read_bytes(), name


def _scholar_record(pub_id, first, last, country, field_ids):
    """A record whose one author, acknowledged by the China Scholarship
    Council, is affiliated in ``country``, split evenly over ``field_ids``."""
    return json.dumps({
        "pub_id": pub_id, "pub_year": 2016, "doc_type": "Article",
        "acknowledgment_text": f"{first} {last} is supported by the China Scholarship Council.",
        "authors": [{"position": 1, "full_name": f"{last}, {first}", "last_name": last,
                     "first_name": first, "affiliations": [{"org_name": "U", "country": country}]}],
        "field_weights": [{"field_id": f, "weight": 1 / len(field_ids)} for f in field_ids],
    })


def _unmapped_field_run(tmp_path):
    """A run on three funded scholars' papers, where the stock field map
    leaves ``mystery`` and ``arcana`` unmapped."""
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("\n".join([
        _scholar_record("R1", "Wei", "Wang", "USA", ["phys"]),
        _scholar_record("R2", "Na", "Li", "Germany", ["mystery"]),
        _scholar_record("R3", "Lei", "Zhao", "USA", ["chem", "mystery", "arcana", "soc"]),
    ]) + "\n")
    config = demo_config(DATA_DIR, tmp_path / "out", input=corpus_path)
    run_pipeline(config)
    return config.out_dir


def test_unmapped_field_ids_warn_once_each(tmp_path, caplog):
    with caplog.at_level("WARNING", logger="fundmob"):
        _unmapped_field_run(tmp_path)
    assert [m for m in caplog.messages if "field map" in m] == [
        "field id 'arcana' is not in the field map and keeps its own name; records holding it: 1",
        "field id 'mystery' is not in the field map and keeps its own name; records holding it: 2",
    ]


def test_every_field_table_names_the_same_fields(tmp_path):
    """pp_ic.tsv, field_distribution.tsv and top_destinations.tsv read
    the fields the one parse-time rule gave the records, an unmapped id
    under its own name in each."""
    out = _unmapped_field_run(tmp_path)
    ppic = {field for _, field, *_ in _tsv(out / "pp_ic.tsv")[0]} - {"Total"}
    dist = {field for field, *_ in _tsv(out / "field_distribution.tsv")[0]}
    top = {field for field, *_ in _tsv(out / "top_destinations.tsv")[0]}
    assert ppic == dist == top == {
        "Physical Sciences and Engineering", "Social Sciences and Humanities", "mystery", "arcana",
    }


def _tsv(path):
    """The rows and the footer comments of a TSV artifact; the header
    and the delimiter comment are dropped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# delimiter: tab"
    rows = [line.split("\t") for line in lines[2:] if not line.startswith("# ")]
    footers = [line[2:] for line in lines[2:] if line.startswith("# ")]
    return rows, footers


def _reconciliation_runs(tmp_path, monkeypatch):
    """The demo corpus, then a small corpus of each benchmark workload
    (seed 5), with its overrides when the workload has some."""
    yield "demo", demo_config(DATA_DIR, tmp_path / "demo")
    gen = load_bench_gen(monkeypatch)
    for workload in gen.WORKLOADS:
        spec = dataclasses.replace(gen.SPECS[workload], records=200, other_records=5)
        paths = gen.write(gen.generate(workload, 5, DATA_DIR, spec), tmp_path / workload / "in")
        yield workload, demo_config(
            DATA_DIR, tmp_path / workload / "out",
            input=paths["corpus"], overrides=paths.get("overrides"),
        )


def test_report_tables_reconcile(tmp_path, monkeypatch):
    """indicators.json restates pp_ic.tsv, field_distribution.tsv and
    temporal.tsv cell for cell, as the TSV writer formats them, and the
    manifest's counts match each other and the row counts of the TSVs."""
    for name, config in _reconciliation_runs(tmp_path, monkeypatch):
        manifest = run_pipeline(config)
        out, stages = config.out_dir, manifest["stages"]
        report = json.loads((out / "indicators.json").read_text(encoding="utf-8"))

        rows, footers = _tsv(out / "pp_ic.tsv")
        assert rows, name
        assert {(p, f): values for p, f, *values in rows} == {
            (period, field): [_fmt(cell[k]) for k in ("numerator", "denominator", "proportion")]
            for period, fields in report["pp_ic"].items() for field, cell in fields.items()
        }, name
        coverage = report["pp_ic_coverage"]["records_with_no_known_country"]
        assert footers == [f"records with no known country: {coverage}"], name

        rows, _ = _tsv(out / "field_distribution.tsv")
        assert rows, name
        assert {f: values for f, *values in rows} == {
            field: [_fmt(share[k]) for k in ("identified", "unidentified", "total")]
            for field, share in report["field_distribution"].items()
        }, name

        rows, _ = _tsv(out / "temporal.tsv")
        assert rows, name
        assert sorted(rows) == sorted(
            [year, tag, _fmt(count)]
            for year, counts in report["temporal"].items() for tag, count in counts.items()
        ), name

        rows, _ = _tsv(out / "mobility_assignments.tsv")
        assert sum(stages["assignments_by_rule"].values()) == stages["chinese_scholar_clusters"] == len(rows), name
        rows, _ = _tsv(out / "period_labels.tsv")
        assert sum(stages["labels_by_class"].values()) == stages["scholar_paper_pairs"] == len(rows), name


def test_a_run_changes_none_of_its_records_or_clusters(tmp_path, monkeypatch):
    """Records, authorships, clusters, funding sentences and matches are
    plain slotted dataclasses, so nothing but this test stops a stage
    from assigning to one. What a run parsed, mined and clustered still
    equals, after the run, a fresh parse, mining and clustering of the
    same input."""
    load, mine, cluster = corpus.load_corpus, ackminer.mine_record, disambig.cluster_corpus
    kept = {}

    def keeping(name, stage):
        def call(*args, **kwargs):
            result = stage(*args, **kwargs)
            kept.setdefault(name, []).append((args, kwargs, result))
            return result
        return call

    monkeypatch.setattr(corpus, "load_corpus", keeping("load", load))
    monkeypatch.setattr(ackminer, "mine_record", keeping("mine", mine))
    monkeypatch.setattr(disambig, "cluster_corpus", keeping("cluster", cluster))
    for name, config in _reconciliation_runs(tmp_path, monkeypatch):
        kept.clear()
        run_pipeline(config)
        assert kept["mine"], name
        [(args, kwargs, parsed)] = kept["load"]
        fresh = load(*args, **kwargs)
        assert parsed.records == fresh.records, name
        by_id = {record.pub_id: record for record in fresh.records}
        for (record, lexicon), _, mined in kept["mine"]:
            assert mined == mine(by_id[record.pub_id], lexicon), (name, record.pub_id)
        [((_, weights, overrides), _, clusters)] = kept["cluster"]
        docs = corpus.filter_documents(fresh.records)
        assert clusters == cluster(docs, weights, overrides), name
