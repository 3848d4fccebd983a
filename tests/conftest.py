"""A group family defined outside the library: the infinite dihedral group.

It shows that a new family is one class and one registry entry.  Its
elements are (k, s) with s in {0, 1}, meaning t^k r^s for the translation t
and the reflection r = r^-1 with r t r = t^-1, so
(k1, s1)(k2, s2) = (k1 + (-1)^s1 k2, s1 + s2 mod 2).  The standard window
at stage n is {-n..n} x {0, 1}.  Tests reach it by its descriptor string,
``parse_descriptor("Dinf")``.
"""

import numpy as np

from grdet import groups


class InfiniteDihedral(groups.Family):
    name, prefix, width = "dihedral", "Dinf", 2
    mismatch = "dihedral elements have two coordinates"

    def canonical(self, c) -> tuple:
        k, s = super().canonical(c)
        return (k, s % 2)

    @staticmethod
    def mul(a, b):
        return (a[0] + (-b[0] if a[1] else b[0]), (a[1] + b[1]) % 2)

    def inverse(self, c):
        return (c[0] if c[1] else -c[0], c[1])

    def box(self, n: int):
        return [-n, 0], [n, 1]

    def translate(self, S, C, bounds):
        # coordinates here stay far inside int64, so no overflow check
        reach = max(-bounds[0][0], bounds[1][0])
        T = np.empty((len(S), len(C), 2), dtype=np.int64)
        T[:, :, 0] = S[:, None, 0] + (1 - 2 * S[:, None, 1]) * C[None, :, 0]
        T[:, :, 1] = (S[:, None, 1] + C[None, :, 1]) % 2
        ks = S[:, 0].tolist() or [0]
        return T, ([min(ks) - reach, 0], [max(ks) + reach, 1])


groups.FAMILIES[InfiniteDihedral.name] = InfiniteDihedral
