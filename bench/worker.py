"""One measurement in a fresh process; prints one JSON line.

    python3 bench/worker.py setup ROOT
    python3 bench/worker.py run ROOT CORPUS OUT_DIR [--overrides FILE] [--trace FILE]

``setup`` times importing fundmob plus loading the five stock config files
through their public loaders. ``run`` times one ``run_pipeline`` call with
default options and reports the process's peak RSS; with ``--trace`` it
installs the layer wrappers first, removes them afterwards and writes the
spans and counters to FILE. Each run needs its own process because peak
RSS is a high-water mark. Around the call, ``run`` also times a fixed
reference computation (:func:`reference`), so the runner can divide out
how fast the shared machine happens to be at that moment.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import sys
import time
import unicodedata
from pathlib import Path

_WS = re.compile(r"\s+")
_BOUNDARY = re.compile(r"([.!?]+)(\s+)")


def _configs(root: Path) -> dict[str, Path]:
    data = root / "data"
    return {
        "lexicon": data / "lexicon_csc.txt",
        "surnames": data / "surnames_cn.txt",
        "field_map": data / "field_map.tsv",
        "country_aliases": data / "country_aliases.tsv",
        "disambig_config": data / "disambig_weights.cfg",
    }


def reference() -> float:
    """Wall time of a fixed standard-library computation shaped like the
    pipeline's work: JSON decoding, Unicode normalization, regex scanning,
    set and dict updates. It never changes with the program and holds
    little memory, so it leaves the run's peak RSS alone."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    hits = 0
    for i in range(18000):
        line = json.dumps({"name": f"Zürich Wang{i % 97}, Xiao-Ming", "n": i,
                           "text": "The second author thanks the CSC. We thank Dr. Li."})
        record = json.loads(line)
        name = "".join(c for c in unicodedata.normalize("NFKD", record["name"])
                       if not unicodedata.combining(c))
        key = _WS.sub(" ", name.casefold()).strip()
        counts[key] = counts.get(key, 0) + 1
        hits += len(set(key.split()) & {"wang1,", "xiao-ming"})
        hits += sum(1 for _ in _BOUNDARY.finditer(record["text"]))
    return time.perf_counter() - start


def setup(root: Path) -> dict:
    paths = _configs(root)
    start = time.perf_counter()
    import fundmob

    fundmob.CountryAliases.load(paths["country_aliases"])
    fundmob.FunderLexicon.load(paths["lexicon"])
    fundmob.SurnameList.load(paths["surnames"])
    fundmob.mobility.load_field_map(paths["field_map"])
    fundmob.ScoringWeights.load(paths["disambig_config"])
    setup_s = time.perf_counter() - start
    _check_origin(fundmob, root)
    return {"setup_s": setup_s}


def run(root: Path, corpus: Path, out_dir: Path, overrides: Path | None, trace: Path | None) -> dict:
    import fundmob
    from fundmob.pipeline import PipelineConfig, run_pipeline

    _check_origin(fundmob, root)
    config = PipelineConfig(input=corpus, out_dir=out_dir, overrides=overrides, **_configs(root))
    ref_before = reference()
    if trace is None:
        start = time.perf_counter()
        run_pipeline(config)
        run_s = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        import tracing

        tracer = tracing.Tracer(run_id=os.getpid())
        originals = {(m, a): tracing.resolve(fundmob, m, a) for m, a in tracing.patched_attributes()}
        tracer.install(fundmob)
        try:
            start = time.perf_counter()
            tracer.call(tracing.ROOT_SPAN, run_pipeline, config)
            run_s = time.perf_counter() - start
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        finally:
            tracer.uninstall()
        for (module, attr), original in originals.items():
            if tracing.resolve(fundmob, module, attr) is not original:
                raise RuntimeError(f"{module}.{attr} was not restored")
        trace.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    ref_s = (ref_before + reference()) / 2
    return {"run_s": run_s, "peak_rss_mb": peak_kb / 1024, "ref_s": ref_s}


def _check_origin(package, root: Path) -> None:
    """Refuse to measure a fundmob other than the one in ROOT/src."""
    src = (root / "src").resolve()
    if src not in Path(package.__file__).resolve().parents:
        raise RuntimeError(f"imported fundmob from {package.__file__}, not from {src}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("root", type=Path)
    parser.add_argument("corpus", type=Path, nargs="?")
    parser.add_argument("out_dir", type=Path, nargs="?")
    parser.add_argument("--overrides", type=Path)
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    if args.mode == "setup":
        result = setup(args.root)
    else:
        if args.corpus is None or args.out_dir is None:
            parser.error("run needs CORPUS and OUT_DIR")
        result = run(args.root, args.corpus, args.out_dir, args.overrides, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
