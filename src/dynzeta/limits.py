"""Global exact-arithmetic scale caps.

All hard limits live here so the CLI and the library agree on budgets.
ENUM_CAP bounds every enumeration of field elements or curve points, and
a field of at most ENUM_CAP elements also keeps exp/log/Zech tables.
"""

POLY_DEGREE_CAP = 10_000
ENUM_CAP = 1_000_000
EXTENSION_DEGREE_CAP = 12
PADIC_PRECISION_CAP = 1024
ELL_SEARCH_CAP = 10_000_000
