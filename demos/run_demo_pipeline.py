"""Run the full pipeline on the bundled 12-record demo corpus.

Equivalent to the CLI invocation:

    fundmob --input data/demo/corpus.jsonl \
        --lexicon data/lexicon_csc.txt \
        --surnames data/surnames_cn.txt \
        --field-map data/field_map.tsv \
        --country-aliases data/country_aliases.tsv \
        --disambig-config data/disambig_weights.cfg \
        --out-dir demo-output

Run from the repository root:

    python3 demos/run_demo_pipeline.py

It exits 1 when the stage counts differ from the hand-derived trace in
``data/demo/expected_trace.json``.
"""
import json
import sys
from pathlib import Path

from fundmob.pipeline import PipelineConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
OUT = ROOT / "demo-output"

config = PipelineConfig(
    input=DATA / "demo" / "corpus.jsonl",
    lexicon=DATA / "lexicon_csc.txt",
    surnames=DATA / "surnames_cn.txt",
    field_map=DATA / "field_map.tsv",
    country_aliases=DATA / "country_aliases.tsv",
    disambig_config=DATA / "disambig_weights.cfg",
    out_dir=OUT,
)
manifest = run_pipeline(config)

print("stage counts:")
for key, value in manifest["stages"].items():
    print(f"  {key}: {json.dumps(value)}")

expected = json.loads((DATA / "demo" / "expected_trace.json").read_text())
expected.pop("_comment", None)
matches = all(manifest["stages"][key] == value for key, value in expected.items())
print(f"\nhand-derived trace reproduced: {matches}")

print(f"\nartifacts written to {OUT}/:")
for path in sorted(OUT.iterdir()):
    print(f"  {path.name}")
sys.exit(0 if matches else 1)
