"""Global exact-arithmetic scale caps: constants that nothing overrides.

Every threshold that refuses with ScaleExceeded (exit 3) is here, so the
CLI and the library agree on budgets.  What each cap refuses:

POLY_DEGREE_CAP          a polynomial, composition or iterate of higher degree
ENUM_CAP                 a walk over more field elements or curve points,
                         or an extension field with more elements
EXTENSION_DEGREE_CAP     a field of higher degree over F_p (invalid spec, exit 2)
ELL_SEARCH_CAP           an auxiliary prime ell, or its tower bound, past it
KERNEL_BUDGET            an ell kernel over 4 budgets (kernel depths fit one)
CROSSCHECK_INDEX_CAP     a supersingular step that no count re-derives
AUTOMATA_KERNEL_BUDGET   an automata-verb kernel comparing more terms
RF_GCD_DEGREE_CAP        an F_p(u) fraction reduced by a gcd of higher degree
TORSION_INDEX_CAP        a Lattes oracle index m^n + 1, or torsion index
                         (exit 2), past it
CHRISTOL_TERMS_CAP       a Christol root with more terms
PRIME_CAP                a prime p at or past it, where Miller-Rabin to the
                         first 13 prime bases proves no primality
"""

POLY_DEGREE_CAP = 10_000
ENUM_CAP = 1_000_000
EXTENSION_DEGREE_CAP = 24
ELL_SEARCH_CAP = 10_000_000
KERNEL_BUDGET = 5_000_000
CROSSCHECK_INDEX_CAP = 20_000
AUTOMATA_KERNEL_BUDGET = 10_000_000
RF_GCD_DEGREE_CAP = 4096
TORSION_INDEX_CAP = 50
CHRISTOL_TERMS_CAP = 524_288
PRIME_CAP = 3_317_044_064_679_887_385_961_981  # psi_13
