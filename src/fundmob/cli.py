"""Command-line front end for the full pipeline."""
from __future__ import annotations

import argparse
import logging
import sys

from . import __version__
from .corpus import CorpusParseError
from .pipeline import ConfigError, PipelineConfig, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fundmob",
        description=(
            "Mine funding acknowledgments to identify sponsored authors, "
            "infer mobility destinations, and compute collaboration indicators."
        ),
    )
    parser.add_argument("--input", required=True, help="line-delimited JSON corpus")
    parser.add_argument("--lexicon", required=True,
                        help="funder lexicon, one surface form per line, at least one")
    parser.add_argument("--surnames", required=True,
                        help="romanized mainland-Chinese surnames, one per line")
    parser.add_argument("--field-map", required=True,
                        help="tab-delimited field_id to top-level field name map; "
                        "an unmapped field_id keeps its own name")
    parser.add_argument("--country-aliases", required=True,
                        help="tab-delimited raw country name to code map")
    parser.add_argument("--disambig-config", required=True,
                        help="key=value disambiguation weights and threshold")
    parser.add_argument("--overrides", default=None,
                        help="optional tab-delimited MERGE/SPLIT override pairs")
    parser.add_argument("--out-dir", required=True, help="artifact output directory")
    parser.add_argument("--whole-count", action="store_true",
                        help="whole counting instead of fractional for field-grouped PP(IC)")
    parser.add_argument("--top-k", type=int, default=PipelineConfig.top_k,
                        help="destinations per field in the top-destinations table")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    config = PipelineConfig(**vars(args))
    try:
        manifest = run_pipeline(config)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except CorpusParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        for issue in exc.errors[:20]:
            print(f"  {issue}", file=sys.stderr)
        return 1
    stages = manifest["stages"]
    print(
        f"done: {stages['records_in']} records in, "
        f"{stages['funded_records']} funder-acknowledging, "
        f"{stages['identified_authorships']} identified authorships, "
        f"{stages['chinese_scholar_clusters']} mobility assignments "
        f"-> {config.out_dir}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
