"""Atoms, rules, parsing, fact graphs, and file loaders."""

import pytest

from argseek.kb import (
    DEFAULT_RULE_WEIGHT,
    KBError,
    Rule,
    build_fact_graph,
    check_atom_id,
    load_facts_file,
    load_rules_file,
    parse_rule,
    render_rule,
)


class TestAtomIds:
    def test_valid_ids_pass_through(self):
        for atom in ("q1", "fact_3", "x", "claim-at-issue"):
            assert check_atom_id(atom) == atom

    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "p&q", "a->b", "w::1", "#x"])
    def test_invalid_ids_rejected(self, bad):
        with pytest.raises(KBError):
            check_atom_id(bad)


class TestRule:
    def test_total_weight_sums_premise_weights(self):
        rule = Rule(("a", "b"), "c", (0.5, 0.75))
        assert rule.total_weight == 1.25

    def test_no_premises_rejected(self):
        with pytest.raises(KBError):
            Rule((), "c", ())

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(KBError):
            Rule(("a", "b"), "c", (0.5,))

    def test_conclusion_among_premises_rejected(self):
        with pytest.raises(KBError):
            Rule(("a", "c"), "c", (0.5, 0.5))

    def test_repeated_premise_rejected(self):
        with pytest.raises(KBError, match="repeats premise 'a'"):
            Rule(("a", "b", "a"), "c", (0.5, 0.5, 0.5))

    def test_non_positive_weight_rejected(self):
        with pytest.raises(KBError):
            Rule(("a",), "c", (0.0,))
        with pytest.raises(KBError):
            Rule(("a",), "c", (-1.0,))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(KBError, match="non-finite"):
            Rule(("a", "b"), "c", (0.5, weight))


class TestParseRule:
    def test_explicit_weight_split_uniformly(self):
        rule = parse_rule("q2 & q4 & q5 -> q1 :: 1.2")
        assert rule.premises == ("q2", "q4", "q5")
        assert rule.conclusion == "q1"
        assert rule.premise_weights == (1.2 / 3,) * 3

    def test_default_weight(self):
        rule = parse_rule("q2 -> q3")
        assert rule.premise_weights == (DEFAULT_RULE_WEIGHT,)

    def test_whitespace_tolerated(self):
        assert parse_rule("  a &b->  c ::  2.0 ") == Rule(("a", "b"), "c", (1.0, 1.0))

    @pytest.mark.parametrize(
        "line",
        [
            "a & b",  # no arrow
            "-> c",  # no premises
            "a & -> c",  # empty premise
            "a ->",  # empty conclusion
            "a -> c :: x",  # unparseable weight
            "a -> c :: 0",  # non-positive weight
            "a -> c :: -1.5",
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(KBError):
            parse_rule(line)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(KBError, match="non-finite weight"):
            parse_rule(f"a & b -> c :: {weight}")

    def test_render_parse_round_trip(self):
        for line in ("a & b -> c :: 1.5", "p -> q :: 0.5", "x & y & z -> w :: 1.2"):
            rule = parse_rule(line)
            assert parse_rule(render_rule(rule)) == rule


class TestFactGraph:
    def test_rule_links_every_premise_to_conclusion(self):
        rules = [parse_rule("q2 & q4 & q5 -> q1 :: 1.2"), parse_rule("q2 -> q3")]
        graph = build_fact_graph(rules, ["q1", "q2", "q3", "q4", "q5"])
        assert graph.neighbors("q1") == ("q2", "q4", "q5")
        assert graph.neighbors("q2") == ("q1", "q3")
        assert graph.neighbors("q3") == ("q2",)
        assert graph.neighbors("q4") == ("q1",)

    def test_symmetry(self):
        rules = [parse_rule("a & b -> c"), parse_rule("c -> d")]
        graph = build_fact_graph(rules, ["a", "b", "c", "d"])
        for atom in graph.nodes:
            for other in graph.neighbors(atom):
                assert atom in graph.neighbors(other)
                assert other != atom

    def test_isolated_atoms_allowed(self):
        graph = build_fact_graph([], ["a", "b"])
        assert graph.neighbors("a") == ()
        assert graph.nodes == {"a", "b"}

    def test_unknown_atom_in_rule_rejected(self):
        with pytest.raises(KBError):
            build_fact_graph([parse_rule("a -> b")], ["a"])


class TestLoaders:
    def test_facts_file(self, tmp_path):
        path = tmp_path / "facts.txt"
        path.write_text("# header\nq1\nq2\n\nq1\nq3\n")
        assert load_facts_file(path) == ["q1", "q2", "q3"]

    def test_facts_file_bad_atom_names_line(self, tmp_path):
        path = tmp_path / "facts.txt"
        path.write_text("q1\nbad atom\n")
        with pytest.raises(KBError, match=":2:"):
            load_facts_file(path)

    def test_rules_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# rules\na & b -> c :: 1.0\n\nd -> e\n")
        rules = load_rules_file(path)
        assert [r.conclusion for r in rules] == ["c", "e"]

    def test_rules_file_bad_line_names_line(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("a -> b\nnot a rule\n")
        with pytest.raises(KBError, match=":2:"):
            load_rules_file(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_rules_file_non_finite_weight_names_line(self, tmp_path, weight):
        path = tmp_path / "rules.txt"
        path.write_text(f"a -> b\n# comment\na & b -> c :: {weight}\n")
        with pytest.raises(KBError, match=r"rules\.txt:3: non-finite weight"):
            load_rules_file(path)
