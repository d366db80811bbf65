"""oddseq: prime counting and generation over the sequence of odd numbers.

The odd numbers 3, 5, 7, ... contain every prime but 2, so pi(x) splits
into element arithmetic plus composite counting.  This package provides
the sequence and its wheel subsequences, closed-form composite-class
counters, a partition-based prime generator, and a sieve oracle that
every closed form is differentially tested against.
"""
from .counting import (
    PiBreakdown,
    Strategy,
    assemble_w,
    count_kl,
    count_kkl,
    count_kkl_classic,
    count_kpow,
    nth_root_floor,
    pi_of,
    square_base_bound,
)
from .errors import ResourceLimitError
from .oracle import (
    KL,
    KKL,
    AscendingFactorization,
    CompositePattern,
    SieveTable,
    count_class,
    count_class_upto,
    factorize_ascending,
    kpow,
    multi,
    p_composite_values,
)
from .pcomposites import (
    ZCounter,
    count_p_composites,
    count_p_composites_classic,
    count_three_composites,
    threshold_index,
)
from .primegen import GeneratorState, first_n_primes, initial_state, step_partition
from .sequences import (
    U64_MAX,
    WheelSpec,
    build_wheel,
    count_elements,
    element_at,
    floor_element,
    index_of,
    wheel_elements,
)

__version__ = "0.1.0"

__all__ = [
    "AscendingFactorization",
    "CompositePattern",
    "GeneratorState",
    "KKL",
    "KL",
    "PiBreakdown",
    "ResourceLimitError",
    "SieveTable",
    "Strategy",
    "U64_MAX",
    "WheelSpec",
    "ZCounter",
    "assemble_w",
    "build_wheel",
    "count_class",
    "count_class_upto",
    "count_elements",
    "count_kl",
    "count_kkl",
    "count_kkl_classic",
    "count_kpow",
    "count_p_composites",
    "count_p_composites_classic",
    "count_three_composites",
    "element_at",
    "factorize_ascending",
    "first_n_primes",
    "floor_element",
    "index_of",
    "initial_state",
    "kpow",
    "multi",
    "nth_root_floor",
    "p_composite_values",
    "pi_of",
    "square_base_bound",
    "step_partition",
    "threshold_index",
    "wheel_elements",
]
