"""Tests of the benchmark itself: generator, checks and traced-run plumbing.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fundmob
import gen
import run
import tracing
import worker
from fundmob import corpus, disambig
from fundmob.pipeline import PipelineConfig, run_pipeline

ROOT = Path(__file__).resolve().parents[2]
DATA = ROOT / "data"


def small(workload: str, seed: int = 7) -> gen.Generated:
    spec = dataclasses.replace(gen.SPECS[workload], records=80, other_records=4,
                               overrides=min(gen.SPECS[workload].overrides, 5))
    return gen.generate(workload, seed, DATA, spec=spec)


def pipeline_config(tmp_path: Path, generated: gen.Generated, out: str) -> PipelineConfig:
    paths = gen.write(generated, tmp_path / "input")
    return PipelineConfig(
        input=paths["corpus"],
        lexicon=DATA / "lexicon_csc.txt",
        surnames=DATA / "surnames_cn.txt",
        field_map=DATA / "field_map.tsv",
        country_aliases=DATA / "country_aliases.tsv",
        disambig_config=DATA / "disambig_weights.cfg",
        out_dir=tmp_path / out,
        overrides=paths.get("overrides"),
    )


def artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_seeded(workload):
    first, again, other = small(workload, 1), small(workload, 1), small(workload, 2)
    assert first.lines == again.lines and first.overrides == again.overrides
    assert first.truth == again.truth
    assert first.lines != other.lines


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_full_size_corpus_parses_without_issues(workload):
    generated = gen.generate(workload, 3, DATA)
    aliases = corpus.CountryAliases.load(DATA / "country_aliases.tsv")
    parsed = corpus.parse_corpus(generated.lines, aliases)
    assert parsed.errors == []
    assert len(parsed.records) == generated.truth["records_in"]
    docs = corpus.filter_documents(parsed.records)
    assert len(docs) == generated.truth["records_after_doc_filter"]
    assert sum(len(r.authors) for r in docs) == generated.truth["authorships_total"]
    assert all(r.doc_type is corpus.DocType.OTHER for r in parsed.records if r not in docs)


def test_block_sizes_do_not_depend_on_the_seed():
    # Chinese blocks are allotted by quota; only western name collisions vary
    pairs = [gen.generate("initials-dense", seed, DATA).truth["descriptors"]["block_pairs"]
             for seed in (1, 2)]
    assert abs(pairs[0] - pairs[1]) <= 0.01 * pairs[0]


def test_every_traced_attribute_resolves():
    for module, attr in tracing.patched_attributes():
        assert callable(tracing.resolve(fundmob, module, attr)), f"{module}.{attr}"


def test_install_refuses_a_missing_attribute(monkeypatch):
    from fundmob import periods

    original = periods.label_corpus
    monkeypatch.delattr(periods, "funded_pub_ids")
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="periods.funded_pub_ids"):
        tracer.install(fundmob)
    assert periods.label_corpus is original   # nothing was patched


def test_pairs_considered_matches_brute_force():
    generated = small("cn-skewed")
    docs = corpus.filter_documents(corpus.parse_corpus(generated.lines).records)
    keys = [disambig.block_key(a) for r in docs for a in r.authors]
    brute = sum(1 for i in range(len(keys)) for j in range(i + 1, len(keys)) if keys[i] == keys[j])

    tracer = tracing.Tracer()
    tracer.install(fundmob)
    try:
        disambig.cluster_corpus(docs, disambig.ScoringWeights())
    finally:
        tracer.uninstall()
    assert tracer.counters["disambig.pairs_considered"] == brute
    assert generated.truth["descriptors"]["block_pairs"] == brute


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tracing_leaves_output_and_program_unchanged(tmp_path, workload):
    generated = small(workload)
    plain = pipeline_config(tmp_path, generated, "plain")
    run_pipeline(plain)

    before = {(m, a): tracing.resolve(fundmob, m, a) for m, a in tracing.patched_attributes()}
    tracer = tracing.Tracer()
    tracer.install(fundmob)
    try:
        traced = pipeline_config(tmp_path, generated, "traced")
        tracer.call(tracing.ROOT_SPAN, run_pipeline, traced)
    finally:
        tracer.uninstall()
    assert all(tracing.resolve(fundmob, m, a) is f for (m, a), f in before.items())
    after = pipeline_config(tmp_path, generated, "after")
    run_pipeline(after)

    reference = artifact_bytes(plain.out_dir)
    assert artifact_bytes(traced.out_dir) == reference
    assert artifact_bytes(after.out_dir) == reference

    summary = tracing.summarize(tracer.to_json()["spans"])
    layer_total = sum(v for k, v in summary.items() if k.startswith("layer."))
    assert layer_total == pytest.approx(summary["run"], rel=1e-9)
    assert tracer.counters["periods.funded_ids_calls"] == 2
    assert sum(tracer.normalize_calls.values()) > 0
    assert "outside" not in tracer.normalize_calls


def test_checks_pass_on_a_real_run_and_catch_damage(tmp_path):
    generated = small("initials-dense")
    config = pipeline_config(tmp_path, generated, "out")
    run_pipeline(config)
    problems, digest = run.check_artifacts(config.out_dir, generated.truth)
    assert problems == [] and len(digest) == 64

    clusters = config.out_dir / "clusters.tsv"
    clusters.write_text("".join(clusters.read_text().splitlines(keepends=True)[:-1]))
    problems, damaged = run.check_artifacts(config.out_dir, generated.truth)
    assert any("clusters.tsv" in p for p in problems) and damaged != digest

    (config.out_dir / "temporal.tsv").unlink()
    problems, _ = run.check_artifacts(config.out_dir, generated.truth)
    assert problems == ["missing artifacts: temporal.tsv"]


def test_unreadable_artifacts_count_as_a_failed_run(tmp_path):
    generated = small("cn-skewed")
    config = pipeline_config(tmp_path, generated, "out")
    run_pipeline(config)
    digests: set[str] = set()
    assert run.check_run(config.out_dir, generated.truth, digests)["recall"] > 0

    manifest = config.out_dir / "manifest.json"
    manifest.write_text(manifest.read_text()[:40])
    with pytest.raises(run.WorkerFailed, match="JSONDecodeError"):
        run.check_run(config.out_dir, generated.truth, digests)


def test_truth_counts_match_the_manifest(tmp_path):
    generated = small("ack-heavy")
    config = pipeline_config(tmp_path, generated, "out")
    stages = run_pipeline(config)["stages"]
    for key in run.TRUTH_STAGES:
        assert stages[key] == generated.truth[key]
    assert run.recall(config.out_dir, generated.truth) > 0


def test_worker_reports_time_memory_and_reference(tmp_path):
    paths = gen.write(small("cn-skewed"), tmp_path / "input")
    sample = worker.run(ROOT, paths["corpus"], tmp_path / "out", None, tmp_path / "trace.json")
    assert sample["run_s"] > 0 and sample["ref_s"] > 0 and sample["peak_rss_mb"] > 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["spans"][0][0] == tracing.ROOT_SPAN
    assert {s[4] for s in trace["spans"]} == {trace["spans"][0][4]}
    metrics = run.layer_metrics(trace, sample["run_s"])
    named = [v for k, v in metrics.items() if k.endswith("_s") and k.split(".")[0] in tracing.LAYERS
             and k not in ("pipeline.traced_run_s", "pipeline.trace_overhead_s")]
    assert sum(named) == pytest.approx(metrics["pipeline.traced_run_s"], rel=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cn-skewed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
