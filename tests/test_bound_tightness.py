"""The paper's collision bound n0 next to the shortest true collision.

No two bit strings of length at most n0 = bound_n0 collide; that is the
paper's result. How far past n0 the first collision really lies is measured
here, not proven: exhaustive_collision_check returns the shortlex-first
colliding pair, so its longer string has the shortest length that collides.
"""
import pytest

from matmonoid import HashParams, bound_n0, exhaustive_collision_check
from test_hash import string_keyed_collision_search

# (p, u, v): (n0, the shortlex-first colliding pair), the pairs as the
# string-keyed search finds them.
TIGHTNESS = {
    (131, 1, 1): (10, ("0010101011110", "1000010101011")),
    (131, 2, 3): (4, ("0100110001", "1000110010")),
    (131, 1, 4): (4, ("0110011110", "1000011001")),
    (131, 5, 7): (2, ("000111110", "100000111")),
    (521, 1, 1): (13, ("00101010101011", "11010101010100")),
    (521, 2, 3): (6, ("00011011000", "11100100111")),
    (521, 1, 4): (6, ("00001100010", "10111001111")),
    (521, 5, 7): (3, ("0111011101110", "1000100010001")),
    (2053, 2, 3): (7, ("001001010011", "110010100100")),
    (2053, 1, 4): (8, ("0000101011110", "1000010101111")),
    (2053, 5, 7): (4, ("01011011011110", "10000100100101")),
    (8209, 2, 3): (8, ("0000111011010", "1010010001111")),
    (8209, 1, 4): (9, ("0001110001010010", "1011010111000111")),
    (8209, 5, 7): (4, ("0010101010010001", "1000100101010100")),
}


@pytest.mark.parametrize("p,u,v", list(TIGHTNESS))
class TestBoundAgainstTheFirstCollision:
    def test_no_collision_up_to_n0(self, p, u, v):
        hp = HashParams(u, v, p)
        n0, _ = TIGHTNESS[p, u, v]
        assert bound_n0(hp) == n0
        assert exhaustive_collision_check(hp, n0) is None

    def test_the_first_collision(self, p, u, v):
        hp = HashParams(u, v, p)
        _, pair = TIGHTNESS[p, u, v]
        shortest = len(pair[1])
        assert exhaustive_collision_check(hp, shortest) == pair
        assert exhaustive_collision_check(hp, shortest - 1) is None
        assert string_keyed_collision_search(hp, shortest) == pair

    def test_the_pair_differs_at_both_ends(self, p, u, v):
        # Both shears are invertible mod p: a shared first (or last) letter
        # would cancel and leave a shorter colliding pair.
        first, second = TIGHTNESS[p, u, v][1]
        assert first and first[0] != second[0] and first[-1] != second[-1]

    def test_every_member_of_the_class_collides_alike(self, p, u, v):
        # For p not dividing uv, D = diag(lam, 1) with lam = u'/u (mod p) conjugates
        # hash_(u', v') into hash_(u, v) whenever u'v' = uv (mod p): both collide on
        # exactly the same pairs, so the shortlex-first pair is one answer for the
        # whole class, whatever n0 or lane width each member has. p | uv is outside
        # this (L_u or R_v is then the identity mod p), and no cell here has it.
        _, pair = TIGHTNESS[p, u, v]
        members = [(d, u * v // d) for d in range(1, u * v + 1) if u * v % d == 0]
        for member in [*members, (u, v + p)]:
            assert exhaustive_collision_check(HashParams(*member, p), len(pair[1])) == pair, member
