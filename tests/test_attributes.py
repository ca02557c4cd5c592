import datetime as dt
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import REFERENCE_GRAPHS, MotifInstance, attributed_isomorphic, instance_from_edges
from placeweave.attributes import (
    KEY_PERMS,
    SECTORS,
    AttributedMotifKey,
    attributed_census,
    attributed_key,
    canonical_keys,
    category_frequency,
    endpoint_counts,
    key_codes,
    sector_by_id,
    to_sector,
)
from placeweave.errors import MissingPoiError, UnknownSectorError
from placeweave.motifs import (
    INDEX_CLASS,
    MASK_CLASS,
    MotifClass,
    classify_trajectories,
)

MON = dt.date(2020, 2, 3)

ALL_PREFIXES = {
    "11", "21", "22", "23", "31", "32", "33", "42", "44", "45", "48", "49",
    "51", "52", "53", "54", "55", "56", "61", "62", "71", "72", "81", "92",
}


def catalog_for(labels_by_node: dict[str, int]):
    return oracles.catalog(
        (node, node, 0.0, 0.0, sorted(sector_by_id(sector_id).prefixes)[0] + "00")
        for node, sector_id in labels_by_node.items()
    )


def make_instance(cls: MotifClass, node_names: list[str]):
    n, ref_edges = REFERENCE_GRAPHS[cls]
    edges = [(node_names[a], node_names[b]) for a, b in ref_edges]
    inst = instance_from_edges(node_names[:n], edges)
    assert inst.motif_class is cls
    return inst


def table_of(device_counts):
    """The instance rows of device_counts[inst] walks tracing each instance, on one day."""
    walks = [
        (f"d{i}-{j}", MON, tuple(oracles.covering_walk(inst.edges)))
        for i, (inst, count) in enumerate(device_counts.items())
        for j in range(count)
    ]
    return classify_trajectories(oracles.sequence_table(walks)).rows


def canonical_key(inst, catalog) -> AttributedMotifKey:
    """The production key of one instance."""
    [key] = canonical_keys(table_of({inst: 1}), catalog).tolist()
    return attributed_key(key)


def census_of(device_counts, catalog, top_k=10):
    rows = table_of(device_counts)
    return attributed_census(rows, canonical_keys(rows, catalog), top_k=top_k)


def labels_of(row) -> tuple[int, ...]:
    """The label sequence of an attributed_census row."""
    return tuple(map(int, row["labels"].split("|")))


# -- sector mapping -----------------------------------------------------------


def test_food_services_code():
    assert to_sector("7225").id == 18
    assert to_sector("7225").label == "Accommodation and Food Services"


def test_manufacturing_group():
    assert to_sector("3254").label == "Manufacturing"
    assert to_sector("3254").id == 5


def test_unknown_prefix_errors():
    with pytest.raises(UnknownSectorError):
        to_sector("99")
    with pytest.raises(UnknownSectorError):
        to_sector("9")


def test_sectors_partition_known_prefixes():
    assert len(SECTORS) == 20
    covered = set()
    for sector in SECTORS:
        assert not (covered & sector.prefixes)
        covered |= sector.prefixes
    assert covered == ALL_PREFIXES
    for prefix in ALL_PREFIXES:
        assert prefix in to_sector(prefix + "11").prefixes
    for bad in ("00", "10", "99", "30", "47"):
        with pytest.raises(UnknownSectorError):
            to_sector(bad)


def test_retail_groups_44_and_45():
    assert to_sector("4411").id == to_sector("4539").id == 7
    assert to_sector("4811").id == to_sector("4931").id == 8


# -- category frequency -------------------------------------------------------


def endpoints(walks, catalog):
    """endpoint_counts of the instances of these walks, one device-day each."""
    walks = [(f"d{i}", MON, tuple(stays)) for i, stays in enumerate(walks)]
    return endpoint_counts(classify_trajectories(oracles.sequence_table(walks)).rows, catalog)


def test_all_retail_flows_share_one():
    catalog = catalog_for({"r1": 7, "r2": 7})
    tally, unresolved = endpoints([("r1", "r2")], catalog)
    assert category_frequency(tally, catalog) == [("Retail Trade", 1.0)]
    assert unresolved == 0


def test_category_shares_sum_to_one():
    catalog = catalog_for({"a": 7, "b": 18, "c": 16, "d": 19})
    tally, _ = endpoints([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")], catalog)
    for digits in (2, 4):
        ranked = category_frequency(tally, catalog, digits=digits)
        assert abs(sum(share for _, share in ranked) - 1.0) < 1e-12


def test_category_frequency_counts_unresolved():
    catalog = catalog_for({"a": 7})
    tally, unresolved = endpoints([("a", "ghost")], catalog)
    assert unresolved == 1
    assert category_frequency(tally, catalog) == [("Retail Trade", 1.0)]


def test_category_frequency_four_digit_uses_code_with_name_fallback():
    catalog = oracles.catalog([("a", "a", 0, 0, "722511"), ("b", "b", 0, 0, "4411")])
    tally, _ = endpoints([("a", "b")], catalog)
    assert dict(category_frequency(tally, catalog, digits=4)) == {"7225": 0.5, "4411": 0.5}


def test_category_frequency_weights_endpoints_by_count():
    catalog = catalog_for({"r1": 7, "f1": 18})
    tally, unresolved = endpoints([("r1", "f1"), ("r1", "ghost"), ("r1", "ghost")], catalog)
    assert tally.tolist() == [1, 3]  # f1, r1
    assert category_frequency(tally, catalog) == [
        ("Retail Trade", 0.75), ("Accommodation and Food Services", 0.25)
    ]
    assert unresolved == 2


def test_endpoint_counts_include_other_rows():
    catalog = catalog_for({"a": 7, "b": 18, "c": 7, "d": 18})
    # five POIs make an OTHER row; its four steps give eight endpoints, one at ghost
    tally, unresolved = endpoints([("a", "b", "c", "d", "ghost"), ("a", "b")], catalog)
    assert tally.tolist() == [2, 3, 2, 2]
    assert unresolved == 1


def test_category_frequency_ranks_by_share_then_label():
    catalog = catalog_for({"a": 7, "b": 18, "c": 18})
    tally, _ = endpoints([("a", "b"), ("b", "c"), ("c", "a")], catalog)
    ranked = category_frequency(tally, catalog)
    assert ranked[0][0] == "Accommodation and Food Services"
    assert ranked[0][1] == pytest.approx(4 / 6)


# -- canonical keys -----------------------------------------------------------


def test_edge_key_symmetric():
    cat = catalog_for({"x": 7, "y": 18})
    a = canonical_key(make_instance(MotifClass.M2_1, ["x", "y"]), cat)
    b = canonical_key(make_instance(MotifClass.M2_1, ["y", "x"]), cat)
    assert a == b == AttributedMotifKey(MotifClass.M2_1, (7, 18))


def test_chain_endpoint_swap():
    # center retail, endpoints food / health in either order
    cat = catalog_for({"e1": 18, "c": 7, "e2": 16})
    a = canonical_key(make_instance(MotifClass.M3_1, ["e1", "c", "e2"]), cat)
    b = canonical_key(make_instance(MotifClass.M3_1, ["e2", "c", "e1"]), cat)
    assert a == b
    assert a.labels == (16, 7, 18)  # endpoints sorted around the center


def test_ring_alternating_labels_identical():
    # cycle labeled A,B,A,B equals B,A,B,A after dihedral reduction
    cat = catalog_for({"n0": 7, "n1": 18, "n2": 7, "n3": 18})
    a = canonical_key(make_instance(MotifClass.M4_3, ["n0", "n1", "n2", "n3"]), cat)
    b = canonical_key(make_instance(MotifClass.M4_3, ["n1", "n2", "n3", "n0"]), cat)
    assert a == b
    # brute-force dihedral minimum over the labeled ring
    ring = (7, 18, 7, 18)
    variants = []
    for direction in (ring, ring[::-1]):
        for shift in range(4):
            variants.append(direction[shift:] + direction[:shift])
    assert a.labels == min(variants)


def test_missing_poi_rejected():
    cat = catalog_for({"x": 7})
    with pytest.raises(MissingPoiError):
        canonical_key(make_instance(MotifClass.M2_1, ["x", "ghost"]), cat)


ALPHABET = (7, 16, 18)


@pytest.mark.parametrize("cls", list(REFERENCE_GRAPHS))
def test_canonical_key_equals_attributed_isomorphism(cls):
    """Exhaustive: keys coincide exactly when a label-preserving
    automorphism exists, for every labeling over a 3-symbol alphabet."""
    n, _ = REFERENCE_GRAPHS[cls]
    nodes = [f"v{i}" for i in range(n)]
    assignments = list(itertools.product(ALPHABET, repeat=n))
    keys = {}
    for labels in assignments:
        cat = catalog_for(dict(zip(nodes, labels)))
        keys[labels] = canonical_key(make_instance(cls, nodes), cat)
    for la, lb in itertools.product(assignments, repeat=2):
        same_key = keys[la] == keys[lb]
        assert same_key == attributed_isomorphic(cls, la, lb), (cls, la, lb)


def test_key_table_equals_the_oracle_on_every_connected_mask():
    """Every connected (node count, edge mask), under every labeling over a
    3-sector alphabet: the table key is the per-instance canonical key."""
    checked = 0
    for n in (2, 3, 4):
        for mask in range(64):
            pairs = [pair for bit, pair in enumerate(oracles.SLOT_PAIRS) if mask >> bit & 1]
            cls = int(MASK_CLASS[n, mask])
            if any(b >= n for _, b in pairs) or INDEX_CLASS[cls] is MotifClass.OTHER:
                continue  # not the graph of an instance on n nodes
            nodes = tuple(f"v{i}" for i in range(n))
            edges = tuple((nodes[a], nodes[b]) for a, b in pairs)
            inst = MotifInstance(nodes, edges, INDEX_CLASS[cls])
            labelings = list(itertools.product(ALPHABET, repeat=n))
            labels = np.array([labeling + (0,) * (4 - n) for labeling in labelings])
            keys = key_codes(np.full(len(labels), cls), np.full(len(labels), mask), labels)
            for labeling, key in zip(labelings, keys.tolist()):
                want = oracles.canonical_key(inst, catalog_for(dict(zip(nodes, labeling))))
                assert attributed_key(key) == want, (n, mask, labeling)
                checked += 1
    # 1 connected labeled graph on 2 nodes, 4 on 3 and 38 on 4
    assert checked == 1 * 3**2 + 4 * 3**3 + 38 * 3**4


def test_key_perm_rows_are_pinned():
    """Each mask's set of key-position maps, pinned: the attributed keys
    are their minimum, so the set fixes every key (row order does not)."""
    assert (KEY_PERMS.dtype, KEY_PERMS.shape) == (np.int8, (64, 24, 4))
    rows = [sorted(set(map(tuple, KEY_PERMS[mask].tolist()))) for mask in range(64)]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "35d9486f987c53d73e3351dfe65f0dcd60efdc19a1bd44179e66979b1f5def7c"


@settings(max_examples=40)
@given(st.permutations(list(range(4))), st.tuples(*[st.sampled_from(ALPHABET)] * 4))
def test_canonical_key_invariant_under_node_ids(perm, labels):
    """Renaming nodes (hence reordering the node list) never changes the key."""
    for cls in (MotifClass.M4_2, MotifClass.M4_3, MotifClass.M4_5, MotifClass.M4_6):
        plain = [f"v{i}" for i in range(4)]
        renamed = [f"w{perm[i]}" for i in range(4)]
        cat_a = catalog_for(dict(zip(plain, labels)))
        cat_b = catalog_for(dict(zip(renamed, labels)))
        a = canonical_key(make_instance(cls, plain), cat_a)
        b = canonical_key(make_instance(cls, renamed), cat_b)
        assert a == b


# -- attributed census --------------------------------------------------------


def test_single_instance_census():
    cat = catalog_for({"x": 7, "y": 18})
    inst = make_instance(MotifClass.M2_1, ["x", "y"])
    [row] = census_of({inst: 3}, cat)
    assert row == {
        "class": "M2_1",
        "labels": "7|18",
        "label_names": "Retail Trade + Accommodation and Food Services",
        "device_count": 3,
        "share": 1.0,
        "same_category": "no",
    }


def test_same_category_flagged():
    cat = catalog_for({"x": 7, "y": 7})
    inst = make_instance(MotifClass.M2_1, ["x", "y"])
    [row] = census_of({inst: 1}, cat)
    assert row["same_category"] == "yes"
    assert labels_of(row) == (7, 7)


def test_planted_mix_shares_recovered():
    # three edge lifestyles planted 50/30/20 over 10000 device-days
    cat = catalog_for({"r1": 7, "r2": 7, "f1": 18, "h1": 16})
    instances = [
        make_instance(MotifClass.M2_1, ["r1", "r2"]),
        make_instance(MotifClass.M2_1, ["r1", "f1"]),
        make_instance(MotifClass.M2_1, ["h1", "f1"]),
    ]
    rng = np.random.default_rng(77)
    counts = rng.multinomial(10_000, [0.5, 0.3, 0.2])
    planted = dict(zip(instances, counts.tolist()))
    ranked = census_of(planted, cat)
    assert {row["class"] for row in ranked} == {"M2_1"}
    shares = {labels_of(row): row["share"] for row in ranked}
    keys = [canonical_key(inst, cat) for inst in instances]
    for key, target in zip(keys, (0.5, 0.3, 0.2)):
        assert abs(shares[key.labels] - target) <= 0.02


def test_top_k_and_tie_break():
    cat = catalog_for({"a": 7, "b": 18, "c": 16, "d": 19})
    insts = {
        make_instance(MotifClass.M2_1, ["a", "b"]): 2,
        make_instance(MotifClass.M2_1, ["a", "c"]): 2,
        make_instance(MotifClass.M2_1, ["a", "d"]): 1,
    }
    ranked = census_of(insts, cat, top_k=2)
    assert len(ranked) == 2
    # equal shares tie-break on label sequence
    assert labels_of(ranked[0]) < labels_of(ranked[1])


def test_empty_census_rejected():
    with pytest.raises(ValueError):
        census_of({}, catalog_for({"a": 7}))
