import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from gitgr import GrassParams, cli, cohomology, reps, semistability, weyl

import oracles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_golden_3_2_2_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "3", "2", "2")
        assert code == 0
        assert "X = P^1 with bundle degree 2" in out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_golden_4_2_2_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "4", "2", "2")
        assert code == 0
        assert "X = P^3 with bundle degree 1" in out

    def test_5_2_2_json_fields(self, capsys):
        code, out, _ = run(capsys, "analyze", "5", "2", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["quotient"]["induction_case"] is True
        assert doc["quotient"]["wonderful"] is True
        assert doc["quotient"]["picard_rank"] == 2
        assert doc["semistability"]["w_sr"]["word"] == [2, 1, 3, 2]
        assert doc["hilbert"]["5"] == 266
        assert doc["decomposition"]["d_min"] == 5

    def test_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "analyze", "5", "2", "2", "--json",
                          "--bundles", "(1,1);(0,2)")
        _, second, _ = run(capsys, "analyze", "5", "2", "2", "--json",
                           "--bundles", "(1,1);(0,2)")
        assert first == second

    def test_json_roundtrip(self, capsys):
        _, out, _ = run(capsys, "analyze", "6", "2", "5", "--json")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_bundles_table(self, capsys):
        code, out, _ = run(capsys, "analyze", "5", "2", "2", "--json",
                           "--bundles", "(1,1)")
        doc = json.loads(out)
        assert doc["cohomology"] == [{"a": 1, "b": 1, "table": {"0": 12}, "euler": 12}]
        assert code == 0

    def test_invalid_r_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["analyze", "5", "0", "2"])
        assert info.value.code == 2

    def test_invalid_s_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["analyze", "5", "2", "5"])
        assert info.value.code == 2

    def test_resource_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("GITGR_MAX_ENUM", "2")
        code, _, err = run(capsys, "analyze", "5", "2", "2")
        assert code == 3
        assert "cap" in err

    def test_counts_beyond_the_subset_cap(self, capsys):
        # C(30, 12) = 86,493,225 subsets are far above the default cap; the
        # report only counts, so it needs none of them
        code, out, _ = run(capsys, "analyze", "30", "12", "10", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["semistability"]["num_pairs"] == 556946539903600
        assert doc["semistability"]["class_counts"] == {
            "positive": 29764735, "zero": 26453700, "negative": 30274790}
        names = {c["name"] for c in doc["diagnostics"]}
        assert {"pair count is duality invariant",
                "fixed-point classes sum to C(n, r)"} <= names
        assert all(c["ok"] for c in doc["diagnostics"])

    def test_non_induction_document_still_emits(self, capsys):
        code, out, _ = run(capsys, "analyze", "6", "2", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["quotient"]["induction_case"] is False
        assert doc["decomposition"] is None
        assert doc["decomposition_error"]

    def test_non_induction_cohomology_is_an_error_entry(self, capsys):
        code, out, _ = run(capsys, "analyze", "8", "3", "3", "--json",
                           "--bundles", "(1,1)")
        assert code == 0
        doc = json.loads(out)
        assert doc["quotient"]["induction_case"] is False
        [entry] = doc["cohomology"]
        assert "error" in entry and "table" not in entry


    def test_one_decomposition_per_analyze(self, capsys, monkeypatch):
        calls = []
        decompose = reps.decompose_sections

        def counted(params, a, b):
            calls.append((a, b))
            return decompose(params, a, b)

        monkeypatch.setattr(reps, "decompose_sections", counted)
        code, out, _ = run(capsys, "analyze", "5", "2", "2", "--json")
        assert code == 0 and calls == [(4, 5)]
        assert json.loads(out)["decomposition"]["total_dim"] == 266

    def test_printed_facts_computed_once(self, capsys, monkeypatch):
        # the diagnostics read the document, so only the pair count of the
        # dual is computed a second time; w~ is checked against the printed
        # w_sr word, which is built once
        calls = Counter()
        for module, name in ((semistability, "count_pairs"),
                             (semistability, "fixed_point_counts"),
                             (semistability, "minimal_semistable_subset"),
                             (semistability, "ss_equals_stable"),
                             (weyl, "build_w_sr")):
            def counted(*args, _call=getattr(module, name), _name=name):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(module, name, counted)
        code, _, _ = run(capsys, "analyze", "5", "2", "2", "--json",
                         "--bundles", "(1,1);(0,2)")
        assert code == 0
        assert calls == {"count_pairs": 2, "fixed_point_counts": 1,
                         "minimal_semistable_subset": 1, "ss_equals_stable": 1,
                         "build_w_sr": 1}

    def test_weyl_words_evaluated_once_per_reader(self, capsys, monkeypatch):
        # one evaluation of the printed w_sr serves the reduced-word, the
        # coset and the factorization checks; the factorization check
        # evaluates w~ and w0, and the reflection test reads w~'s
        # permutation from it.  The seven checks keep their names and order
        params = GrassParams(5, 2, 2)
        w_sr, w_tilde, w0 = (weyl.build_w_sr(params), weyl.factor_w_tilde(params),
                             weyl.build_w0_coset(params))
        words, evaluate = Counter(), weyl.evaluate_word

        def counted(word, n):
            words[tuple(word)] += 1
            return evaluate(word, n)
        monkeypatch.setattr(weyl, "evaluate_word", counted)
        code, out, _ = run(capsys, "analyze", "5", "2", "2", "--json")
        assert code == 0
        assert words == {w_sr: 1, w_tilde: 1, w0: 1}
        assert [c["name"] for c in json.loads(out)["diagnostics"]] == [
            "w_sr word is reduced", "w_sr subset matches closed form",
            "factorization w0 = w~ * w_sr", "pair count is duality invariant",
            "fixed-point classes sum to C(n, r)",
            "induction test matches reflection test",
            "dimension identity base + fiber = dim X"]

    def test_tables_and_hilbert_values_built_once(self, capsys, monkeypatch):
        # euler reads the table already built.  The Hilbert sums live in
        # reps._hilbert_values: the table asks it for degrees 0..6 in one
        # call, against one budget total, and the calibration checks the
        # sections against the h(d_min) = h(5) of that table.  So each
        # degree 0..6 is summed once
        tables, calls = Counter(), []
        on_x, values = cohomology.cohomology_on_X, reps._hilbert_values

        def counted_table(params, a, b):
            tables[a, b] += 1
            return on_x(params, a, b)

        def counted_values(params, degrees):
            calls.append(list(degrees))
            return values(params, calls[-1])

        monkeypatch.setattr(cohomology, "cohomology_on_X", counted_table)
        monkeypatch.setattr(reps, "_hilbert_values", counted_values)
        code, out, _ = run(capsys, "analyze", "5", "2", "2", "--json",
                           "--bundles", "(1,1);(0,2)")
        assert code == 0
        assert tables == {(1, 1): 1, (0, 2): 1}
        assert calls == [[0, 1, 2, 3, 4, 5, 6]]
        assert Counter(m for degrees in calls for m in degrees) == {m: 1 for m in range(7)}
        doc = json.loads(out)
        assert doc["hilbert"]["5"] == doc["decomposition"]["total_dim"] == 266
        assert [t["euler"] for t in doc["cohomology"]] == [12, 6]

    def test_matrix_model_fiber_dims(self, capsys):
        # (4,2,2) = P(M_{2x2}) = P^3, the shape its sections and cohomology use
        _, out, _ = run(capsys, "analyze", "4", "2", "2", "--json")
        quotient = json.loads(out)["quotient"]
        assert quotient["fiber_dims"] == [2, 2]
        assert quotient["explicit_model"] == ["P^3", 1]

    def test_json_outputs_pinned(self, capsys):
        # sha256 over every analyze --json output with n <= 9, each triple
        # without and then with bundles, in (n, r, s) order
        digest = hashlib.sha256()
        for n in range(2, 10):
            for r in range(1, n):
                for s in range(1, n):
                    triple = (str(n), str(r), str(s))
                    for extra in ((), ("--bundles", "(1,1);(0,2);(-6,1);(2,0);(-4,0)")):
                        code, out, _ = run(capsys, "analyze", *triple, "--json", *extra)
                        assert code == 0, triple
                        digest.update(out.encode())
        assert digest.hexdigest() == (
            "ec67f233108977ac3383e4a0d614c4a97feb7641f01f5d5c1fba3c6c20fb1e8e")

    def test_broken_invariant_is_a_clean_error(self, capsys, monkeypatch):
        monkeypatch.setattr(weyl, "_w_tilde_parsed", lambda params: (1,))
        code, out, err = run(capsys, "analyze", "5", "2", "2", "--json")
        assert (code, out) == (1, "")
        assert err.startswith("error: closed-form w~") and "Traceback" not in err

    def test_w_tilde_of_the_right_length_that_does_not_factor(self, capsys, monkeypatch):
        # (4, 3) is reduced and as long as the true w~ = (3, 4) of (5, 2, 2),
        # so only the product w~ * w_sr = w0 fails, and analyze exits 1
        monkeypatch.setattr(weyl, "_w_tilde_parsed", lambda params: (4, 3))
        code, out, err = run(capsys, "analyze", "5", "2", "2", "--json")
        assert (code, out) == (1, "")
        assert err.startswith("error: closed-form w~ = (4, 3)") and "Traceback" not in err

    def test_table_degrees_share_one_budget(self, capsys):
        # the analyze twin of TestHilbert.test_degrees_share_one_budget:
        # (8, 4, 2) is outside the induction case, so no degree comes from
        # the calibration and the table charges degrees 0..1999, 1,001,000
        # summands, before the first sum
        code, out, err = run(capsys, "analyze", "8", "4", "2", "--json",
                             "--max-degree", "3000")
        assert code == 3 and out == ""
        assert "stage: Levi branching, requested: 1001000, cap: 1000000" in err
        assert "degrees 0..1999" in err and "2 x 1999 box" in err

    def test_calibration_shares_the_table_budget(self, capsys, monkeypatch):
        # (5, 2, 2) has 1 summand in degree 0 and 3 in d_min = 5, the
        # calibration's h(d_min): one total of 4, refused under a cap of 3
        # with the error of hilbert 5 2 2 --degrees 6
        monkeypatch.setenv("GITGR_MAX_ENUM", "3")
        errs = []
        for argv in (("analyze", "5", "2", "2", "--json"),
                     ("hilbert", "5", "2", "2", "--degrees", "6")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert "stage: Levi branching, requested: 4, cap: 3" in err
            errs.append(err)
        assert errs[0] == errs[1]

    def test_matrix_model_cohomology(self, capsys):
        code, out, _ = run(capsys, "analyze", "4", "2", "2", "--json",
                           "--bundles", "(2,0);(-4,0);(1,1)")
        assert code == 0
        tables = json.loads(out)["cohomology"]
        assert [t.get("table") for t in tables[:2]] == [{"0": 10}, {"3": 1}]
        assert tables[2]["error"].endswith("has no base factor; b must be 0")

    def test_non_induction_input_beyond_hilbert_budget(self, capsys):
        # h(d_min) at (40,17,13) would visit about 1.1e11 partitions; the
        # non-induction refusal comes first
        code, out, _ = run(capsys, "analyze", "40", "17", "13", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["decomposition"] is None
        assert "outside the induction case" in doc["decomposition_error"]


class TestDiagnostics:
    @pytest.mark.parametrize("path, doctor, check", [
        (("semistability", "num_pairs"), lambda value: value + 1,
         "pair count is duality invariant"),
        (("semistability", "w_sr", "subset"), lambda value: [3, 5],
         "w_sr subset matches closed form"),
        (("semistability", "class_counts", "zero"), lambda value: value + 1,
         "fixed-point classes sum to C(n, r)"),
        (("quotient", "fiber_dims"), lambda value: [value[0], value[1] + 1],
         "dimension identity base + fiber = dim X"),
        (("quotient", "induction_case"), lambda value: not value,
         "induction test matches reflection test"),
    ])
    def test_doctored_value_fails_its_check(self, path, doctor, check):
        params = GrassParams(5, 2, 2)
        doc = cli.build_document(params, 2, [])
        names = [c["name"] for c in doc["diagnostics"]]
        assert check in names and all(c["ok"] for c in doc["diagnostics"])
        *parents, key = path
        node = doc
        for name in parents:
            node = node[name]
        node[key] = doctor(node[key])
        checks = cli._diagnostics(params, doc)
        assert [c["name"] for c in checks] == names
        assert [c["name"] for c in checks if not c["ok"]] == [check]


class TestHilbert:
    def test_3_2_2(self, capsys):
        code, out, _ = run(capsys, "hilbert", "3", "2", "2", "--degrees", "6")
        assert code == 0
        assert out.splitlines() == ["m,h", "0,1", "1,0", "2,0", "3,3",
                                    "4,0", "5,0", "6,5"]

    def test_4_2_2(self, capsys):
        code, out, _ = run(capsys, "hilbert", "4", "2", "2", "--degrees", "3")
        assert out.splitlines() == ["m,h", "0,1", "1,4", "2,10", "3,20"]

    def test_2_1_1(self, capsys):
        code, out, _ = run(capsys, "hilbert", "2", "1", "1", "--degrees", "2")
        assert out.splitlines() == ["m,h", "0,1", "1,0", "2,1"]

    def test_degrees_share_one_budget(self, capsys):
        # (8, 4, 2) visits m // 2 + 1 summands in degree m, at most 1,501 up
        # to m = 3000, each degree far under the cap.  Over degrees
        # 0..1999 they total 2 * (0 + ... + 999) + 2000 = 1,001,000, so the
        # command is refused there, before the first sum
        code, out, err = run(capsys, "hilbert", "8", "4", "2", "--degrees", "3000")
        assert code == 3 and out == ""
        assert "stage: Levi branching, requested: 1001000, cap: 1000000" in err
        assert "degrees 0..1999" in err

    def test_each_box_counted_once(self, capsys, monkeypatch):
        # every degree of (8, 4, 2) has summands, the m // 2 + 1 partitions
        # of m in the 2 x m box, and the one budget counts each box once
        counted, count = Counter(), reps._box_partition_count

        def record(total, rows, cols):
            counted[total, rows, cols] += 1
            return count(total, rows, cols)
        monkeypatch.setattr(reps, "_box_partition_count", record)
        code, out, _ = run(capsys, "hilbert", "8", "4", "2", "--degrees", "32")
        assert code == 0 and len(out.splitlines()) == 34
        assert counted == {(m, 2, m): 1 for m in range(33)}

    def test_budget_error_prints_no_rows(self, capsys, monkeypatch):
        monkeypatch.setenv("GITGR_MAX_ENUM", "100")
        code, out, err = run(capsys, "hilbert", "12", "6", "6", "--degrees", "10")
        assert code == 3
        assert out == ""
        assert "cap" in err


class TestCells:
    def test_2_1_1(self, capsys):
        code, out, _ = run(capsys, "cells", "2", "1", "1")
        assert out.splitlines() == ["{1} <= {2}", "1 pairs"]

    def test_3_2_2_two_pairs(self, capsys):
        code, out, _ = run(capsys, "cells", "3", "2", "2")
        lines = out.splitlines()
        assert lines == ["{1,2} <= {1,3}", "{1,2} <= {2,3}", "2 pairs"]

    def test_limit_zero_counts_only(self, capsys):
        code, out, _ = run(capsys, "cells", "3", "2", "2", "--limit", "0")
        assert out.splitlines() == ["... truncated; 2 pairs total"]

    def test_lexicographic_order(self, capsys):
        _, out, _ = run(capsys, "cells", "5", "2", "2")
        body = [line for line in out.splitlines() if line.startswith("{")]
        assert body == sorted(body)

    def test_count_without_listing(self, capsys):
        code, out, _ = run(capsys, "cells", "30", "12", "10", "--limit", "0")
        assert code == 0
        assert out.splitlines() == ["... truncated; 556946539903600 pairs total"]

    def test_listing_over_cap_refused_before_output(self, capsys, monkeypatch):
        monkeypatch.setenv("GITGR_MAX_ENUM", "10")
        code, out, err = run(capsys, "cells", "5", "2", "2")
        assert code == 3
        assert out == ""
        assert "cap" in err and "stage: cells listing" in err and "requested: 19" in err
        code, out, _ = run(capsys, "cells", "5", "2", "2", "--limit", "10")
        assert code == 0
        assert out.splitlines()[-1] == "... truncated; 19 pairs total"
        assert len(out.splitlines()) == 11

    def test_large_n_limited_listing(self, capsys):
        # C(600, 2) = 179,700 subsets are scanned, and the first join's list
        # holds every nonpositive subset
        code, out, _ = run(capsys, "cells", "600", "2", "1", "--limit", "10")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 11
        assert lines[0] == "{1,2} <= {2,3}"
        assert lines[9] == "{1,2} <= {2,12}"
        assert lines[10] == "... truncated; 71640400 pairs total"

    def test_limited_listing_formats_only_what_it_prints(self, capsys, monkeypatch):
        # the first join's list holds 179,101 subsets, but only the 10 tails
        # that can still be printed are formatted
        formatted = []

        class Counted(cli._Braced):
            def __missing__(self, subset):
                formatted.append(subset)
                return super().__missing__(subset)
        monkeypatch.setattr(cli, "_Braced", Counted)
        code, out, _ = run(capsys, "cells", "600", "2", "1", "--limit", "10")
        assert code == 0 and len(out.splitlines()) == 11
        assert len(formatted) <= 10

    @pytest.mark.parametrize("argv, digest", [
        (("11", "5", "3"),
         "2bcd002c66cb8144b6fa52bd70da6d4d7b29a380b5c62c0b84870e42b32c2678"),
        (("12", "6", "6", "--limit", "1000"),
         "7b3df80d35814198c7212e5840b937c4a3b20d59220a5bc0b3252b149603b085"),
        (("5", "2", "2", "--limit", "10"),
         "d7c9ed3cb0297566a61b3e074d38c70fb360288a356823ee2541f977bae3b527"),
        # cut inside a group whose phi list is shared with earlier v
        (("11", "5", "3", "--limit", "20000"),
         "a029e121758a8625588b3a9980b2c10494a510a8e98f773ab0d026a2b13183ff"),
    ])
    def test_listing_bytes_pinned(self, capsys, argv, digest):
        # sha256 of the output of the one-print-per-pair listing
        code, out, _ = run(capsys, "cells", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_listing_spans_several_blocks(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CELLS_BLOCK", 3)
        _, blocked, _ = run(capsys, "cells", "5", "2", "2")
        monkeypatch.setattr(cli, "_CELLS_BLOCK", 4096)
        _, whole, _ = run(capsys, "cells", "5", "2", "2")
        assert blocked == whole and len(whole.splitlines()) == 20


def _cells_text(params, limit):
    """``cells`` output formatted from the brute-force pairs."""
    pairs = oracles.brute_pairs(params)
    shown = pairs if limit is None else pairs[:limit]
    lines = ["{%s} <= {%s}" % (",".join(map(str, v)), ",".join(map(str, phi)))
             for v, phi in shown]
    lines.append(f"{len(pairs)} pairs" if len(shown) == len(pairs)
                 else f"... truncated; {len(pairs)} pairs total")
    return "".join(line + "\n" for line in lines)


class TestCellsListing:
    def test_matches_brute_force_up_to_8(self, capsys):
        for n in range(2, 9):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    total = len(oracles.brute_pairs(params))
                    for limit in (None, 0, 1, 7, total - 1):
                        argv = ["cells", str(n), str(r), str(s)]
                        if limit is not None:
                            argv += ["--limit", str(limit)]
                        code, out, err = run(capsys, *argv)
                        assert (code, out, err) == (0, _cells_text(params, limit), ""), argv

    @pytest.mark.parametrize("block", [1, 5, 40])
    def test_writes_hold_whole_groups_within_the_block(self, capsys, monkeypatch, block):
        monkeypatch.setattr(cli, "_CELLS_BLOCK", block)
        writes = []
        monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or len(text))
        assert cli.main(["cells", "8", "4", "3"]) == 0
        monkeypatch.undo()
        params = GrassParams(8, 4, 3)
        assert "".join(writes) == _cells_text(params, None)
        listed = [text.splitlines() for text in writes if " <= " in text]
        assert sum(map(len, listed)) == len(oracles.brute_pairs(params))
        for lines, following in zip(listed, listed[1:] + [[""]]):
            head = lines[-1].split(" <= ")[0] + " <= "
            last_group = sum(1 for line in lines if line.startswith(head))
            assert len(lines) - last_group < block
            assert not following[0].startswith(head)


#: Pieces of one entry of a ``--bundles`` pair: digits, signs and spaces the
#: regular expression reads or refuses.
_BUNDLE_ENTRY = st.lists(st.sampled_from(
    ["1", "23", "-4", "0", "\u0663", "\u00b2", "+", "_", "--5", "- 5", " ", "\t",
     "\u2003", "-"]), max_size=3).map("".join)


class TestParsing:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2

    def test_bad_bundle_list(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["analyze", "5", "2", "2", "--bundles", "nonsense"])
        assert info.value.code == 2

    @pytest.mark.parametrize("raw", ["(1,2", "1,2)", "(1,23", "12,3)", "((1,2)",
                                     "(1,2));(0,1)", "()"])
    def test_unbalanced_parentheses_rejected(self, raw, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["analyze", "5", "2", "2", "--bundles", raw])
        assert info.value.code == 2
        assert "cannot parse bundle" in capsys.readouterr().err

    def test_bundles_with_or_without_parentheses(self):
        assert cli._bundle_list("(1,2); 3 , -4 ;( -5 , 6 )") == [(1, 2), (3, -4), (-5, 6)]

    @given(st.one_of(
        st.lists(st.tuples(_BUNDLE_ENTRY, _BUNDLE_ENTRY, st.booleans()).map(
            lambda t: ("({},{})" if t[2] else "{},{}").format(*t[:2])), max_size=3).map(";".join),
        st.text(alphabet="07-+_ ,;()\u0663\u00b2\t\u2003", max_size=16)))
    @example("(- 5,1)")
    @example("(--5,1)")
    @example("(+5,1)")
    @example("(1_0,2)")
    @example("(\u0663,-\u0663)")
    @example("(\u00b2,1)")
    def test_bundle_parser_matches_the_regex(self, raw):
        try:
            expected = oracles.bundle_list_regex(raw)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                cli._bundle_list(raw)
            assert str(info.value) == str(exc)
        else:
            assert cli._bundle_list(raw) == expected

    def test_big_int_serialization(self):
        doc = cli._jsonable({"x": 2**60, "y": [7, 2**54], "z": -2**60})
        assert doc == {"x": str(2**60), "y": [7, str(2**54)], "z": str(-2**60)}


README_LINES = [
    ("analyze", "5", "2", "2"),
    ("analyze", "5", "2", "2", "--json"),
    ("analyze", "5", "2", "2", "--bundles", "(1,1);(0,2)", "--max-degree", "8"),
    ("hilbert", "3", "2", "2", "--degrees", "6"),
    ("cells", "3", "2", "2"),
    ("cells", "5", "2", "2", "--limit", "0"),
]
ACCEPTED = README_LINES + [
    ("analyze", "5", "2", "2", "--max-degree=3", "--bundles=(1,1);(0,2)"),
    ("analyze", "5", "2", "2", "--bundles=", "--json"),
    ("hilbert", "3", "2", "2", "--degrees=4"),
    ("cells", "3", "2", "2", "--limit=1"),
    ("analyze", "--json", "--max-degree", "2", "5", "2", "2"),
    ("analyze", "5", "--json", "2", "--bundles", "(1,1)", "2"),
    ("hilbert", "--degrees", "3", "4", "2", "2"),
    ("cells", "3", "2", "--limit", "5", "2"),
    ("analyze", "5", "2", "2", "--max-degree", "2", "--max-degree", "0", "--json", "--json"),
    ("analyze", "5", "2", "2", "--bundles", "(-1,2)"),
    ("analyze", "+5", " 2", "2 "),
]
REJECTED = [
    (),
    ("bogus", "5", "2", "2"),
    ("--json", "analyze", "5", "2", "2"),
    ("analyze", "5", "2", "2", "--nope"),
    ("analyze", "5", "2", "2", "-j"),
    ("analyze", "5", "2", "2", "--limit", "3"),
    ("hilbert", "3", "2", "2", "--json"),
    ("analyze", "5", "2", "2", "--max-degree"),
    ("analyze", "5", "2", "2", "--bundles"),
    ("cells", "3", "2", "2", "--limit"),
    ("analyze",),
    ("analyze", "5", "2"),
    ("analyze", "5", "2", "2", "7"),
    ("analyze", "5", "2", "x"),
    ("analyze", "5", "2", "2.0"),
    ("hilbert", "3", "2", "2", "--degrees", "1.5"),
    ("analyze", "5", "2", "2", "--max-degree", "two"),
    ("analyze", "5", "2", "2", "--max-degree", "-1"),
    ("hilbert", "3", "2", "2", "--degrees=-2"),
    ("cells", "3", "2", "2", "--limit", "-1"),
    ("analyze", "5", "0", "2"),
    ("analyze", "5", "2", "5"),
    ("analyze", "1", "1", "1"),
    ("analyze", "5", "-1", "2"),
    ("analyze", "5", "2", "2", "--bundles", "nonsense"),
    ("analyze", "5", "2", "2", "--bundles=(1,2"),
    ("analyze", "5", "2", "2", "--json=yes"),
]
HELP = [("-h",), ("--help",), ("analyze", "--help"), ("cells", "3", "2", "2", "-h")]
#: Where the parser departs from argparse on purpose: (argv, argparse's
#: reading or its exit code, this parser's reading or its exit code).
DIVERGENT = [
    # argparse accepted any unambiguous prefix of an option
    (("analyze", "5", "2", "2", "--max", "3"),
     ("analyze", (5, 2, 2), {"json": False, "max_degree": 3, "bundles": []}), 2),
    (("analyze", "5", "2", "2", "--js"),
     ("analyze", (5, 2, 2), {"json": True, "max_degree": 6, "bundles": []}), 2),
    (("hilbert", "3", "2", "2", "--deg", "2"),
     ("hilbert", (3, 2, 2), {"degrees": 2}), 2),
    # argparse read a value starting with "-" as an option unless it was a number
    (("analyze", "5", "2", "2", "--bundles", "-1,2"), 2,
     ("analyze", (5, 2, 2), {"json": False, "max_degree": 6, "bundles": [(-1, 2)]})),
    # argparse took "--" as the end of the options
    (("analyze", "--", "5", "2", "2"),
     ("analyze", (5, 2, 2), {"json": False, "max_degree": 6, "bundles": []}), 2),
]


def _reading(parse, argv):
    """(command, (n, r, s), options) as ``parse`` reads ``argv``, or its exit code."""
    try:
        command, params, options = parse(list(argv))
    except SystemExit as exc:
        return exc.code
    return command, (params.n, params.r, params.s), vars(options)


class TestCommandLine:
    """The table-driven parser against the argparse one it replaced."""

    @pytest.mark.parametrize("argv", ACCEPTED)
    def test_accepted_as_argparse_read_it(self, argv, capsys):
        ours = _reading(cli._parse, argv)
        assert not isinstance(ours, int), capsys.readouterr().err
        assert ours == _reading(oracles.argparse_command_line, argv)

    @pytest.mark.parametrize("argv", REJECTED)
    def test_rejected_with_usage(self, argv, capsys):
        assert _reading(oracles.argparse_command_line, argv) == 2
        capsys.readouterr()
        assert _reading(cli._parse, argv) == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and lines[0].startswith("usage: gitgr ")
        assert lines[-1].startswith("gitgr: error: ")

    @pytest.mark.parametrize("argv", HELP)
    def test_help_exits_0(self, argv, capsys):
        assert _reading(oracles.argparse_command_line, argv) == 0
        capsys.readouterr()
        assert _reading(cli._parse, argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: gitgr analyze n r s") and err == ""
        assert "--max-degree D" in out and "exit codes" in out

    @pytest.mark.parametrize("argv, theirs, ours", DIVERGENT)
    def test_intended_divergences(self, argv, theirs, ours, capsys):
        assert _reading(oracles.argparse_command_line, argv) == theirs
        assert _reading(cli._parse, argv) == ours

    def test_main_runs_what_it_parsed(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--degrees=2", "2", "1", "1")
        assert code == 0 and out.splitlines() == ["m,h", "0,1", "1,0", "2,1"]


ENTRY_ARGV = ["analyze", "5", "2", "2", "--json", "--bundles", "(1,1);(0,2)"]


def _child_env():
    path = [SRC] + [entry for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _child(*args, timeout=120):
    return subprocess.run([sys.executable, *args], capture_output=True, env=_child_env(),
                          timeout=timeout)


class TestEntryPoint:
    def test_module_run_matches_in_process(self, capsys):
        child = _child("-m", "gitgr.cli", *ENTRY_ARGV)
        assert child.returncode == 0, child.stderr
        code, out, _ = run(capsys, *ENTRY_ARGV)
        assert code == 0 and child.stdout == out.encode()

    def test_main_imports_no_argparse(self):
        # argparse pulls in gettext, and its first message lookup locale
        code = ("import sys\n"
                "from gitgr import cli\n"
                f"sys.argv = ['gitgr', *{ENTRY_ARGV!r}]\n"
                "code = cli.main()\n"
                "loaded = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
                "print(code, *loaded, file=sys.stderr)\n")
        child = _child("-c", code)
        assert child.returncode == 0 and child.stdout.startswith(b'{"cohomology"')
        assert child.stderr.split() == [b"0"]

    def test_large_factor_returns_quickly(self):
        # SL(999) Weyl dimensions: the pairs of equal entries are skipped
        child = _child("-m", "gitgr.cli", "analyze", "1000", "1", "1", "--json", timeout=5)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout)["params"]["n"] == 1000

    @pytest.mark.parametrize("cap", ["abc", "0", "-5"])
    def test_malformed_cap_exits_2(self, cap, capsys, monkeypatch):
        # a cap that is not a positive integer is a bad argument: one error
        # line, nothing on stdout, and no traceback from the process
        monkeypatch.setenv("GITGR_MAX_ENUM", cap)
        for argv in (["analyze", "5", "2", "2"], ["cells", "3", "2", "2"],
                     ["hilbert", "5", "2", "2"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            out, err = capsys.readouterr()
            assert info.value.code == 2 and out == "", argv
            assert err.startswith("gitgr: error: GITGR_MAX_ENUM must be ") and \
                err.count("\n") == 1, (argv, err)
        child = _child("-m", "gitgr.cli", "analyze", "5", "2", "2")
        assert (child.returncode, child.stdout) == (2, b"")
        assert child.stderr.startswith(b"gitgr: error: ") and b"Traceback" not in child.stderr

    def test_closed_stdout_exits_141_quietly(self):
        # the listing is about 1 MB, far past a pipe's buffer
        child = subprocess.Popen([sys.executable, "-m", "gitgr.cli", "cells", "11", "5", "3"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=_child_env())
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert child.returncode == 141
        assert b"Traceback" not in err and b"Exception ignored" not in err, err
