"""fundmob: funding-acknowledgment mining, scholar mobility inference,
and collaboration indicators for bibliographic corpora."""

__version__ = "0.1.0"

from .ackminer import (
    FundedAuthorship,
    FunderLexicon,
    FundingSentence,
    extract_funding_sentences,
    generate_name_variants,
    match_funded_authors,
    mine_record,
)
from .corpus import (
    Affiliation,
    Authorship,
    CountryAliases,
    DocType,
    PubDate,
    PublicationRecord,
    filter_documents,
    load_corpus,
    parse_corpus,
    resolve_pub_date,
)
from .disambig import (
    CorpusIndex,
    ResearcherCluster,
    ScoringWeights,
    block_authorships,
    cluster_corpus,
)
from .mobility import (
    MobilityAssignment,
    SurnameList,
    aggregate_flows,
    collect_countries,
    infer_destination,
    is_mainland_chinese_scholar,
    top_destinations_by_field,
)
from .periods import (
    Label,
    PeriodLabel,
    SponsorshipWindow,
    classify_publication,
    compute_window,
    label_corpus,
    reconcile_multi_scholar,
)
from .indicators import (
    field_distribution,
    is_international_collab,
    pp_ic,
    temporal_distribution,
)
from .pipeline import PipelineConfig, run_pipeline
