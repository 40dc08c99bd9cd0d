"""polysieve: exact sieve and Fourier statistics for polynomial
discriminants over Z and over prime fields.

The library verifies, at desk scale and with brute-force oracles, the
machinery behind square-discriminant polynomial counting (a modified
Selberg sieve driven by Mobius-weighted local densities) and almost-prime
discriminant counting (a linear sieve driven by the squarefree-complement
density 1/d).

Importing the package loads only its version; import the modules you use
(`polysieve.zpoly`, `charsum`, `sieve`, `almostprime`, `cli`).
"""

__version__ = "0.1.0"
