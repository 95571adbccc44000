"""corpuskit: streaming construction of clean pretraining corpora.

Library surface for the whole build: ingestion of plain and bilingual
corpora, five line-quality filters, exact keep-first deduplication,
deterministic seeded splitting, cased BPE subword training, tweet
normalization, multilabel binarization, and entailment-pair generation.
"""

from .bpe import (
    BpeModel,
    TokenizerConfig,
    add_special_tokens,
    decode,
    encode,
    learn_bpe,
    load_model,
    save_model,
)
from .core import (
    CorpusError,
    EncodingError,
    FilterVerdict,
    RejectReason,
    SentenceRecord,
)
from .dedup import dedup_files, dedup_key, dedup_lines
from .filters import (
    FilterConfig,
    apply_filters,
    filter_avg_word_len,
    filter_html,
    filter_length,
    filter_non_latin,
    filter_punct_run,
)
from .ingest import (
    BitextRecord,
    Side,
    extract_bitext_side,
    read_articles,
    read_articles_file,
    read_paired_bitext,
    read_plain_corpus,
    read_tsv_bitext,
)
from .labels import LABEL_FIELDS, decode_label_flags, encode_label_flags
from .nli import NliGenResult, NliLabel, NliPair, make_nli_pairs
from .pipeline import (
    PipelineConfig,
    PipelineError,
    PipelineStats,
    SourceSpec,
    StageStats,
    load_config,
    report_stats,
    run_pipeline,
    validate_config,
)
from .split import (
    SplitConfig,
    SplitUnit,
    assign_split,
    derive_subseed,
    seeded_hash64,
    split_articles,
    split_corpus,
)
from .tweets import (
    collapse_tokens,
    decode_html_entities,
    moses_detokenize,
    preprocess_tweet,
    renormalize_spacing,
)

__version__ = "0.1.0"
