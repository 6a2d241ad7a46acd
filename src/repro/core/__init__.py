"""Core path-based watermarking algorithms (substrate-independent).

This package contains everything from Sections 2-3 of the paper that
does not touch a particular code substrate: the trace bit-string
decoder, the CRT splitting/recombination machinery, the statement
enumeration, the block cipher, the recognition algorithm, and the
closed-form success-probability model (Eq. 1). ``loops`` holds the
loop analysis that both substrates' CFGs share.
"""

from .bitstring import (
    bits_to_int_lsb_first,
    decode_bits,
    int_to_bits_lsb_first,
    sliding_windows,
    window_multiset,
)
from .cipher import BlockCipher, cipher_for_secret, derive_key
from .crt import Congruence, crt_pair, egcd, generalized_crt, modinv, pairwise_coprime
from .enumeration import Statement, StatementEnumeration
from .errors import (
    CodegenError,
    EmbeddingError,
    RecognitionError,
    TamperProofError,
    WatermarkError,
)
from .planner import (
    RedundancyPlan,
    plan_redundancy,
    plan_table,
    success_probability_for_pieces,
)
from .primes import choose_moduli, is_prime, next_prime, statement_space_size
from .probability import (
    success_probability_deletion,
    success_probability_k_intact,
    simulate_deletion,
    simulate_k_intact,
)
from .recovery import RecoveryResult, recover
from .splitting import is_full_coverage, reconstruct, split

__all__ = [
    "BlockCipher",
    "CodegenError",
    "Congruence",
    "EmbeddingError",
    "RecognitionError",
    "RecoveryResult",
    "RedundancyPlan",
    "Statement",
    "StatementEnumeration",
    "TamperProofError",
    "WatermarkError",
    "bits_to_int_lsb_first",
    "choose_moduli",
    "cipher_for_secret",
    "crt_pair",
    "decode_bits",
    "derive_key",
    "egcd",
    "generalized_crt",
    "int_to_bits_lsb_first",
    "is_full_coverage",
    "is_prime",
    "modinv",
    "next_prime",
    "pairwise_coprime",
    "plan_redundancy",
    "plan_table",
    "reconstruct",
    "recover",
    "simulate_deletion",
    "simulate_k_intact",
    "sliding_windows",
    "split",
    "statement_space_size",
    "success_probability_for_pieces",
    "success_probability_deletion",
    "success_probability_k_intact",
    "window_multiset",
]
