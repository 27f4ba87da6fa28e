"""Graphs from 0-1 words: primality analysis, ages, bounds, realizers.

The library builds finite graphs from binary words, analyses their module
structure and prime members, enumerates age approximations and their bound
certificates at explicit finite scales, and constructs two-linear-order
realizers witnessing that every finite word graph is a permutation graph.
"""

from .ages import (
    AgeApprox,
    BoundCertificate,
    age_enumerate,
    age_includes,
    bounds_enumerate,
    jonsson_desk_check,
    validate_bound_certificate,
    word_age,
)
from .catalogue import (
    chain_word_prime,
    detect_unavoidable,
    family_member,
    half_graph,
    line_of_k2n,
    line_of_subdivided_star,
    subdivided_star,
)
from .graph6 import from_graph6, to_dot, to_graph6
from .graphs import (
    CanonKey,
    Graph,
    GraphError,
    canonical_form,
    canonical_key,
    complement,
    embedding,
    embeds,
    enumerate_graphs,
    induced_subgraph,
    line_graph,
    make,
)
from .primes import (
    ModuleWitness,
    PrimalityError,
    PrimeHeightRecord,
    find_nontrivial_module,
    is_critically_prime,
    is_prime,
    prime_height,
    schmerl_trotter_pair,
)
from .realizers import Realizer, build_realizer, validate_realizer
from .wordgraph import graph_of_word, graph_of_word_forward
from .words import (
    ContinuedFraction,
    FactorSet,
    Word,
    WordError,
    complement_word,
    explicit_word,
    factor_complexity,
    factors,
    fibonacci_word,
    golden_slope,
    mechanical_word,
    periodic_word,
    recurrence_bound,
    reverse_star,
    substitution_word,
)

__version__ = "0.1.0"
