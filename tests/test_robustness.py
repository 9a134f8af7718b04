"""Mutated input documents: the CLI answers with an exit code, never a traceback.

Valid documents of every kind are mutated (fields dropped, retyped or
duplicated, piece and level indices out of range, members dropped so scales
stop covering, numbers replaced by integers and 'p/q' rationals of 2000 to
5000 digits) and run through ``main()`` on a command that reads them. Every
run must end in 0, 1, 2, 64 or 65.
"""

from __future__ import annotations

import copy
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from coarsekit.cli import main
from coarsekit.documents import (
    family_to_doc,
    map_to_doc,
    metric_to_doc,
    space_to_doc,
    system_to_doc,
)
from coarsekit.families import Family
from coarsekit.maps import identity_map, path_metric

from test_cli import PIECE_WITNESSES, two_islands

EXIT_CODES = {0, 1, 2, 64, 65}
NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?")


class Raw(str):
    """JSON text written as it is: numbers too long for int() to print."""


def digits(n: int, lead: str = "7") -> str:
    return lead + "3" * (n - 1)


BIG = st.integers(2000, 5000).flatmap(
    lambda n: st.sampled_from(
        [
            Raw(digits(n)),
            Raw("-" + digits(n)),
            "1" + "0" * n,
            digits(n) + "/" + digits(n, "9"),
            "1/" + digits(n),
        ]
    )
)
INDEX = st.sampled_from([0, -1, 2, 3, 7, 99, 2**64])
VALUES = (
    st.sampled_from(
        [None, True, False, 1, 1.5, "x", "inf", "1/0", "-1/2", "0:a", "zz", [], {}, ["0:a"]]
    )
    | INDEX
    | st.builds(lambda i: {"level": i}, INDEX)
    | st.builds(lambda i, j: {"piece": i, "level": j}, INDEX, INDEX)
    | BIG
)


def dump(node, dup=None, path=()) -> str:
    """Compact JSON of node; dup = (path, key, value) writes one more key."""
    if isinstance(node, Raw):
        return str(node)
    if isinstance(node, dict):
        items = [(json.dumps(k), dump(v, dup, path + (k,))) for k, v in node.items()]
        if dup is not None and dup[0] == path:
            items.append((json.dumps(dup[1]), dump(dup[2])))
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(dump(v, dup, path + (i,)) for i, v in enumerate(node)) + "]"
    return json.dumps(node)


def paths(node, path=()):
    """Every path below node, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield path + (k,)
        if isinstance(v, (dict, list)) and not isinstance(v, Raw):
            yield from paths(v, path + (k,))


def at(node, path):
    for k in path:
        node = node[k]
    return node


@st.composite
def mutated_text(draw, doc: dict) -> str:
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        where = list(paths(doc))
        if not where:
            break
        path = draw(st.sampled_from(where))
        owner, key = at(doc, path[:-1]), path[-1]
        how = draw(st.sampled_from(["drop", "retype", "copy", "grow"]))
        if how == "drop":
            del owner[key]
        elif how == "retype":
            owner[key] = copy.deepcopy(draw(VALUES))  # drawn lists are shared
        elif how == "copy" and isinstance(owner, list):  # keys are duplicated below
            owner.insert(key, copy.deepcopy(owner[key]))
        elif how == "grow":
            numbers = [p for p in where if NUMBER.fullmatch(str(at(doc, p)))]
            if numbers:
                path = draw(st.sampled_from(numbers))
                at(doc, path[:-1])[path[-1]] = draw(BIG)
    dicts = [p for p in [(), *paths(doc)] if isinstance(at(doc, p), dict)]
    dup = None
    if draw(st.booleans()):
        path = draw(st.sampled_from(dicts))
        keys = list(at(doc, path)) or ["extra"]
        dup = (path, draw(st.sampled_from(keys)), draw(VALUES))
    return dump(doc, dup)


def envelope(doc) -> dict:
    return {"kind": doc.kind, "version": doc.version, "body": doc.body}


def witness(kind, body) -> dict:
    return {"kind": kind, "version": "1", "body": body}


def inputs() -> dict:
    """name -> valid document; piece M0 of two_islands() is the witness target."""
    fs = two_islands()
    m0 = fs.pieces[0].space
    docs = {
        "system": envelope(system_to_doc(fs)),
        "m0": envelope(space_to_doc(m0)),
        "family": envelope(family_to_doc(Family(fs.ambient, (frozenset({"0:a", "0:b"}),)))),
        "map": envelope(map_to_doc(identity_map(m0.points))),
        "metric": envelope(metric_to_doc(path_metric(m0.points))),
        "apc": witness("witness:apc", {"selections": [[["0:a", "0:b"]]], "bounds": [1]}),
        "generators": witness(
            "witness:generators", {"points": ["0:a", "0:b"], "families": [[["0:a", "0:b"]]]}
        ),
        "input": envelope(
            family_to_doc(
                Family(
                    fs.ambient,
                    (frozenset({"0:a", "0:b"}),) * 2 + (frozenset({"1:c"}), frozenset({"1:d"})),
                )
            )
        ),
    }
    for inv, body in PIECE_WITNESSES.items():
        docs[inv] = witness("witness:" + inv.replace("-", "_"), body)
    return docs


# mutated input -> commands that read it; "@name" stands for the file of inputs()[name]
COMMANDS = {
    "system": [["validate", "@system"], ["bounded", "@system", "@family"]],
    "m0": [["validate", "@m0"], ["map-check", "close", "@m0", "@map", "@map"]],
    "family": [["bounded", "@system", "@family"], ["star", "@system", "@family", "@family"]],
    "map": [["map-check", "bornologous", "@m0", "@m0", "@map"]],
    "metric": [
        ["map-check", "so", "@m0", "@metric", "@map", "--eps", "1", "--level", "1", "--search"]
    ],
    "apc": [["check", "apc", "@m0", "--witness", "@apc"]],
    "generators": [["check", "generators", "@generators"]],
    **{
        inv: [
            ["check", inv, "@m0", "--witness", f"@{inv}", *extra],
            ["lift", inv, "@system", "--piece", "M0", "--witness", f"@{inv}", *extra, *lift],
        ]
        for inv, extra, lift in [
            ("asdim", ["--n", "0"], []),
            ("exactness", [], []),
            ("pinch", [], []),
            ("amenability", [], ["--input", "@input"]),
            ("property-a", [], []),
        ]
    },
}


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("name", COMMANDS)
def test_mutated_documents_get_an_exit_code(tmp_path, name):
    docs = inputs()
    for key, doc in docs.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc), encoding="utf-8")

    def argvs(mutated: str) -> list:
        return [
            [a if a[0] != "@" else str(tmp_path / f"{mutated if a[1:] == name else a[1:]}.json")
             for a in argv]
            for argv in COMMANDS[name]
        ]

    for argv in argvs(name):
        assert run(argv)[0] == 0, argv
    mutated = tmp_path / "mutated.json"

    @settings(max_examples=30)
    @given(mutated_text(docs[name]), st.sampled_from(argvs("mutated")))
    def check(text, argv):
        mutated.write_text(text, encoding="utf-8")
        code, err = run(argv)
        assert code in EXIT_CODES, (argv, text[:200])
        assert "Traceback" not in err

    check()

