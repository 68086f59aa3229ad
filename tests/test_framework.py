"""Graph-core tests: every counting operation is checked against a brute
enumeration oracle before anything downstream trusts it."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankarg import framework as framework_module
from rankarg.framework import (
    ApxError,
    ArgFramework,
    CyclicFrameworkError,
    FrameworkError,
    SizeCapExceededError,
    UnknownArgumentError,
    branch_profiles,
    clone_fresh,
    connected_components,
    disjoint_union,
    graft_branch,
    has_cycle,
    parse_apx,
    rename,
    serialize_apx,
    walk_counts,
)

# --- test-only helpers ----------------------------------------------------


def branch_profile(framework, name):
    framework._require(name)
    return branch_profiles(framework)[name]


def find_isomorphism(f, g):
    """An attack-preserving bijection from f to g, or None.

    Backtracking search; candidates are pruned by (in-degree, out-degree,
    self-attack) signatures.
    """
    if len(f.arguments) != len(g.arguments) or len(f.attacks) != len(g.attacks):
        return None

    def signature(fr, v):
        return (len(fr.attackers(v)), len(fr.targets(v)), (v, v) in fr.attacks)

    f_args = sorted(f.arguments)
    by_sig = {}
    for w in sorted(g.arguments):
        by_sig.setdefault(signature(g, w), []).append(w)
    candidates = {}
    for v in f_args:
        cands = by_sig.get(signature(f, v))
        if not cands:
            return None
        candidates[v] = cands
    order = sorted(f_args, key=lambda v: (len(candidates[v]), v))
    mapping = {}
    used = set()

    def consistent(v, w):
        for u, x in mapping.items():
            if ((u, v) in f.attacks) != ((x, w) in g.attacks):
                return False
            if ((v, u) in f.attacks) != ((w, x) in g.attacks):
                return False
        return True

    def backtrack(i):
        if i == len(order):
            return True
        v = order[i]
        for w in candidates[v]:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return dict(mapping) if backtrack(0) else None


# --- oracles -------------------------------------------------------------


def all_walks(framework, length):
    """Every directed walk of exactly `length` attacks, as a vertex sequence."""
    def extend(walk):
        if len(walk) == length + 1:
            yield walk
            return
        for nxt in sorted(framework.targets(walk[-1])):
            yield from extend(walk + (nxt,))

    for start in sorted(framework.arguments):
        yield from extend((start,))


def walk_count_oracle(framework, name, length):
    """Count walks of `length` attacks ending at `name` by full enumeration."""
    return sum(1 for walk in all_walks(framework, length) if walk[-1] == name)


def branch_oracle(framework, name):
    """Enumerate all root walks into `name` by DFS over the acyclic graph."""
    defense, attack = [], []

    def descend(node, length):
        if not framework.attackers(node):
            (defense if length % 2 == 0 else attack).append(length)
        for parent in framework.attackers(node):
            descend(parent, length + 1)

    descend(name, 0)
    return tuple(sorted(defense)), tuple(sorted(attack))


def isomorphism_oracle(f, g):
    """Exhaustive permutation search for an attack-preserving bijection."""
    fa, ga = sorted(f.arguments), sorted(g.arguments)
    if len(fa) != len(ga):
        return False
    for perm in permutations(ga):
        mapping = dict(zip(fa, perm))
        if all(((mapping[x], mapping[y]) in g.attacks) == ((x, y) in f.attacks)
               for x in fa for y in fa):
            return True
    return False


def components_oracle(framework):
    """Union-find over undirected attack pairs."""
    parent = {a: a for a in framework.arguments}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in framework.attacks:
        parent[find(a)] = find(b)
    groups = {}
    for a in framework.arguments:
        groups.setdefault(find(a), set()).add(a)
    return sorted((frozenset(g) for g in groups.values()), key=sorted)


def random_framework(rng, n, density, self_attacks=True):
    names = [f"n{i}" for i in range(n)]
    attacks = [(x, y) for x in names for y in names
               if (x != y or self_attacks) and rng.random() < density]
    return ArgFramework.make(names, attacks)


frameworks = st.builds(
    random_framework,
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=0.7),
)


# --- construction and apx ------------------------------------------------


def test_make_rejects_dangling_attack():
    with pytest.raises(FrameworkError):
        ArgFramework.make(["a"], [("a", "b")])


def test_make_rejects_bad_name():
    with pytest.raises(FrameworkError):
        ArgFramework.make(["a b"], [])


def test_parse_apx_minimal():
    f = parse_apx("arg(a). arg(b). att(a,b).")
    assert f.arguments == {"a", "b"}
    assert f.attacks == {("a", "b")}


def test_parse_apx_undeclared_endpoint():
    with pytest.raises(ApxError):
        parse_apx("arg(a). att(a,b).")


def test_parse_apx_duplicate_arg():
    with pytest.raises(ApxError) as err:
        parse_apx("arg(a).\narg(a).")
    assert err.value.line == 2


def test_parse_apx_comments_and_layout():
    f = parse_apx("% a comment\narg(x). arg(y) .  % trailing\natt(x , y).\n")
    assert f.attacks == {("x", "y")}


def test_parse_apx_syntax_error_carries_line():
    with pytest.raises(ApxError) as err:
        parse_apx("arg(a).\nbogus(a).")
    assert err.value.line == 2


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0c", "\u2028"],
                         ids=["lf", "crlf", "cr", "formfeed", "line-separator"])
def test_parse_apx_line_breaks(brk):
    assert parse_apx(f"arg(a).{brk}arg(b).{brk}att(a,b).{brk}") == ArgFramework.make("ab", [("a", "b")])
    with pytest.raises(ApxError, match=r"^line 3: unparseable fact near 'bogus\.'$"):
        parse_apx(f"arg(a).{brk}{brk}bogus.")


def test_parse_apx_fact_does_not_span_lines():
    with pytest.raises(ApxError, match=r"^line 1: unparseable fact near 'arg\('$"):
        parse_apx("arg(\na).")


def test_parse_apx_several_facts_on_one_line():
    f = parse_apx("arg(a).arg(b). att(a,b).\tatt( b , a ) .")
    assert f == ArgFramework.make("ab", [("a", "b"), ("b", "a")])


def test_parse_apx_comment_at_end_of_file():
    assert parse_apx("arg(a). % no newline after this") == ArgFramework.make("a")
    assert parse_apx("arg(a).%") == ArgFramework.make("a")


@pytest.mark.parametrize("text, message", [
    ("arg(a).\n  arg(b). xyz % arg(c).\n", "line 2: unparseable fact near 'xyz '"),
    ("arg(a).\n" + "q" * 40, "line 2: unparseable fact near '" + "q" * 30 + "'"),
    ("arg(a).\narg(a,b).", "line 2: arg() takes a single name"),
    ("arg(a).\n\natt(a).", "line 3: att() needs two names"),
    ("arg(a).\narg(b).\narg(a).", "line 3: duplicate arg(a)"),
    ("att(a,b).\narg(a).", "line 1: attack references undeclared argument 'b'"),
    # the first syntax error wins over duplicates, and duplicates over
    # undeclared endpoints, wherever they stand
    ("arg(a).\narg(a).\natt(a, z).\nbad", "line 4: unparseable fact near 'bad'"),
    ("att(a,z).\narg(a).\narg(a).", "line 3: duplicate arg(a)"),
], ids=["unparseable", "snippet-30", "arg-two-names", "att-one-name", "duplicate",
        "undeclared", "syntax-first", "duplicate-before-undeclared"])
def test_parse_apx_error_texts(text, message):
    with pytest.raises(ApxError) as err:
        parse_apx(text)
    assert str(err.value) == message
    assert err.value.line == int(message.split()[1].rstrip(":"))


@settings(max_examples=80, deadline=None)
@given(frameworks, st.randoms(use_true_random=False))
def test_apx_round_trip_through_padding(f, rng):
    def pad():
        return rng.choice(["", "", " ", "\t", "  \t "])

    def fact(kind, names):
        inner = f"{pad()},{pad()}".join(names)
        return f"{pad()}{kind}{pad()}({pad()}{inner}{pad()}){pad()}.{pad()}"

    lines = []
    for line in serialize_apx(f).splitlines():
        kind, names = line[:3], line[4:-2].split(",")
        text = fact(kind, names)
        if rng.random() < 0.3:
            text += f"% {rng.choice(['note', 'arg(zz).', '%'])}"
        lines.append(text)
        if rng.random() < 0.2:
            lines.append(pad() + "% a whole-line comment")
    text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
    if rng.random() < 0.5:
        text += "% trailing comment without a newline"
    assert parse_apx(text) == f


def test_parse_apx_example1(ex1):
    text = "\n".join(f"arg({a})." for a in "abcde") + \
        "\natt(a,e). att(b,a). att(b,c). att(c,e). att(d,a). att(e,d)."
    f = parse_apx(text)
    assert len(f.arguments) == 5 and len(f.attacks) == 6
    assert f == ex1


@settings(max_examples=80, deadline=None)
@given(frameworks)
def test_apx_round_trip(f):
    assert parse_apx(serialize_apx(f)) == f


def test_serializer_sorted(ex1):
    lines = serialize_apx(ex1).strip().splitlines()
    assert lines[:5] == [f"arg({a})." for a in "abcde"]
    assert lines[5:] == sorted(lines[5:])


# --- queries vs oracles --------------------------------------------------


def test_direct_attackers_example1(ex1):
    assert ex1.attackers("e") == {"a", "c"}
    assert ex1.attackers("b") == set()
    assert ArgFramework.make("x").attackers("x") == set()
    with pytest.raises(UnknownArgumentError):
        ex1.attackers("zz")


def test_walk_counts_example1(ex1):
    table = walk_counts(ex1, 2)
    assert [table.count_in(a, 1) for a in "abcde"] == [2, 0, 1, 1, 2]
    assert [table.count_in(a, 2) for a in "abcde"] == [1, 0, 0, 2, 3]


def test_edits_and_queries_refuse_what_the_framework_lacks(ex1):
    with pytest.raises(UnknownArgumentError, match=r"unknown arguments \['y', 'z'\]"):
        ex1.restricted_to(["a", "z", "y"])
    with pytest.raises(FrameworkError, match="no attack"):
        ex1.without_attack(("b", "b"))
    table = walk_counts(ex1, 2)
    with pytest.raises(UnknownArgumentError, match="unknown argument 'zz'"):
        table.count_in("zz", 1)
    for length in (0, 3):
        with pytest.raises(ValueError, match=r"length \d outside 1\.\.2"):
            table.count_in("a", length)
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        walk_counts(ex1, 0)
    for mapping in ({a: "x" for a in ex1.arguments}, {"a": "x"}):
        with pytest.raises(FrameworkError, match="bijection"):
            rename(ex1, mapping)


def test_walk_counts_no_attackers():
    f = ArgFramework.make("ab", [("a", "b")])
    table = walk_counts(f, 5)
    assert all(table.count_in("a", n) == 0 for n in range(1, 6))


@settings(max_examples=60, deadline=None)
@given(frameworks)
def test_walk_counts_match_enumeration(f):
    table = walk_counts(f, 6)
    for length in range(1, 7):
        walks = list(all_walks(f, length))
        assert sum(table.count_in(a, length) for a in f.arguments) == len(walks)
        for a in f.arguments:
            assert table.count_in(a, length) == sum(1 for w in walks if w[-1] == a)


def test_branch_profile_figure2(fig2):
    assert branch_profile(fig2, "a").defense_lengths == (2, 2, 2, 2)
    assert branch_profile(fig2, "a").attack_lengths == ()
    assert branch_profile(fig2, "b") == branch_profiles(fig2)["b"]
    assert branch_profile(fig2, "b").attack_lengths == (1,)
    assert branch_profile(fig2, "b").defense_lengths == ()


def test_branch_profile_unattacked():
    f = ArgFramework.make("xy", [("x", "y")])
    assert branch_profile(f, "x").defense_lengths == (0,)
    assert branch_profile(f, "x").attack_lengths == ()


def test_branch_profile_rejects_cycles(cycle2):
    with pytest.raises(CyclicFrameworkError):
        branch_profiles(cycle2)
    with pytest.raises(CyclicFrameworkError):
        branch_profile(ArgFramework.make("a", [("a", "a")]), "a")


def test_branch_profile_budget_counts_every_entry(layered, monkeypatch):
    # 2 roots with one entry each, then 2 arguments per layer with 2, 4 and
    # 8 walks: 30 entries
    f = layered(4)
    monkeypatch.setattr(framework_module, "BRANCH_PROFILE_BUDGET", 30)
    assert branch_profiles(f)["l3a"].attack_lengths == (3,) * 8
    monkeypatch.setattr(framework_module, "BRANCH_PROFILE_BUDGET", 29)
    with pytest.raises(SizeCapExceededError, match="30 entries, over the budget of 29"):
        branch_profiles(f)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=8))
def test_branch_profile_matches_dfs_oracle(rng, n):
    names = [f"n{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    pos = {a: i for i, a in enumerate(order)}
    attacks = [(x, y) for x in names for y in names
               if pos[x] > pos[y] and rng.random() < 0.4]
    f = ArgFramework.make(names, attacks)
    profiles = branch_profiles(f)
    for a in names:
        assert (profiles[a].defense_lengths, profiles[a].attack_lengths) == branch_oracle(f, a)


def test_components_example1(ex1):
    assert [c.arguments for c in connected_components(ex1)] == [ex1.arguments]


def test_components_isolated():
    f = ArgFramework.make("ab")
    comps = connected_components(f)
    assert sorted((c.arguments for c in comps), key=sorted) == [{"a"}, {"b"}]


def test_components_union_sizes(ex1):
    two_chain = ArgFramework.make(["p", "q"], [("p", "q")])
    merged = disjoint_union(ex1, two_chain)
    sizes = sorted(len(c.arguments) for c in connected_components(merged))
    assert sizes == [2, 5]


def test_components_are_the_framework_itself_or_its_induced_parts(ex1):
    assert connected_components(ex1)[0] is ex1
    merged = disjoint_union(ex1, ArgFramework.make(["p", "q"], [("p", "q")]))
    parts = connected_components(merged)
    assert parts == [merged.restricted_to(ex1.arguments), merged.restricted_to("pq")]


@settings(max_examples=60, deadline=None)
@given(frameworks)
def test_components_match_union_find(f):
    ours = sorted((c.arguments for c in connected_components(f)), key=sorted)
    assert ours == components_oracle(f)


# --- isomorphism ----------------------------------------------------------


def test_isomorphism_renamed_copy(ex1):
    copy, gamma = clone_fresh(ex1)
    found = find_isomorphism(ex1, copy)
    assert found is not None
    assert all(((x, y) in ex1.attacks) == ((found[x], found[y]) in copy.attacks)
               for x in ex1.arguments for y in ex1.arguments)


def test_isomorphism_degree_mismatch():
    cycle = ArgFramework.make("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    chain_ = ArgFramework.make("xyz", [("x", "y"), ("y", "z")])
    assert find_isomorphism(cycle, chain_) is None


def test_isomorphism_attack_removed(ex1):
    smaller = ex1.without_attack(("e", "d"))
    padded = ArgFramework(smaller.arguments, smaller.attacks)
    assert find_isomorphism(ex1, padded) is None
    assert not isomorphism_oracle(ex1, padded)


@settings(max_examples=40, deadline=None)
@given(frameworks, frameworks)
def test_isomorphism_matches_permutation_oracle(f, g):
    assert (find_isomorphism(f, g) is not None) == isomorphism_oracle(f, g)


@settings(max_examples=30, deadline=None)
@given(frameworks)
def test_clone_then_find(f):
    copy, gamma = clone_fresh(f)
    assert not (copy.arguments & f.arguments)
    assert find_isomorphism(f, copy) is not None
    assert len(disjoint_union(f, copy).arguments) == 2 * len(f.arguments)


def test_clone_suffix_collision():
    f = ArgFramework.make(["a", "a_c"])
    copy, gamma = clone_fresh(f)
    assert not (copy.arguments & f.arguments)
    assert len(copy.arguments) == 2


# --- union and grafting ---------------------------------------------------


def test_union_identity(ex1):
    empty = ArgFramework.make([])
    assert disjoint_union(ex1, empty) == ex1
    assert disjoint_union(ex1, ex1) == ex1


def test_union_apart(ex1):
    copy, _ = clone_fresh(ex1)
    merged = disjoint_union(ex1, copy)
    assert len(merged.arguments) == 10 and len(merged.attacks) == 12


def test_graft_attack_minimal():
    f = graft_branch(ArgFramework.make("a"), "a", "attack")
    assert len(f.arguments) == 2
    (attacker,) = f.attackers("a")
    assert not f.attackers(attacker)


def test_graft_defense_minimal():
    f = graft_branch(ArgFramework.make("a"), "a", "defense")
    (x1,) = f.attackers("a")
    (x2,) = f.attackers(x1)
    assert not f.attackers(x2)


def test_graft_onto_figure2_target(fig2):
    grafted = graft_branch(fig2, "b", "defense")
    profile = branch_profiles(grafted)["b"]
    assert profile.defense_lengths == (2,)
    assert profile.attack_lengths == (1,)


def test_graft_parity_checked():
    with pytest.raises(FrameworkError):
        graft_branch(ArgFramework.make("a"), "a", "support")


def test_graft_names_stay_fresh():
    f = ArgFramework.make(["a", "a_a1"])
    grafted = graft_branch(f, "a", "attack")
    assert len(grafted.arguments) == 3


def test_has_cycle(ex1, chain3, cycle2):
    assert has_cycle(ex1)
    assert has_cycle(cycle2)
    assert has_cycle(ArgFramework.make("a", [("a", "a")]))
    assert not has_cycle(chain3)
