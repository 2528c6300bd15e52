"""Command line entry point: verify, construct, derive, code, search.

Exit codes: 0 success / verified, 1 semantic failure (verification failed,
bound violated, nothing found), 2 usage or I/O errors.  "-" reads stdin or
writes stdout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import click

from . import constructions, search
from .codes import (
    code_from_obj,
    code_stats,
    dumps_code,
    gbtp_to_code,
    loads_code,
    optimality_cert_2q3,
    plotkin_check,
)
from .designs import VERIFIERS, dumps_grid, grid_from_obj, loads_grid, verify_auto
from .errors import TforgeError
from .starters import (
    build_fq_gbtd_starter,
    build_frgbtd_6_8,
    build_igbtp_33,
    develop_gbtd,
    dumps_starter,
    starter_from_obj,
    verify_starter,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_any(text: str):
    obj = json.loads(text)
    if isinstance(obj, dict) and "starter_kind" in obj:
        return "starter", starter_from_obj(obj)
    if isinstance(obj, dict) and "words" in obj:
        return "code", code_from_obj(obj)
    return "design", grid_from_obj(obj)


class _Fail(Exception):
    """Semantic failure: exit 1."""


@click.group()
def main():
    """Tournament-array construction engine and code certifier."""


@main.command()
@click.argument("path")
@click.option("--kind", default="auto", type=click.Choice(["auto", *VERIFIERS]),
              help="verifier to run (auto uses the file's kind)")
def verify(path, kind):
    """Verify a design, starter or code file."""
    what, obj = _load_any(_read(path))
    if what == "starter":
        rep = verify_starter(obj)
    elif what == "code":
        st = code_stats(obj)
        click.echo(st.describe())
        if not st.equitable:
            raise _Fail("code is not of equitable symbol weight")
        return
    else:
        if kind != "auto":
            obj = dataclasses.replace(obj, kind=kind)
        rep = verify_auto(obj)
    click.echo(rep.describe())
    if not rep.ok:
        raise _Fail("verification failed")


@main.group()
def construct():
    """Direct constructions."""


@construct.command("fq-gbtd")
@click.option("--q", type=int, required=True)
@click.option("-o", "--out", default="-")
@click.option("--starter-out", default=None, help="also write the starter file")
def construct_fq_gbtd(q, out, starter_out):
    """Prime-power starter development: a special colorable triple array."""
    s = build_fq_gbtd_starter(q)
    if starter_out:
        _write(starter_out, dumps_starter(s))
    _write(out, dumps_grid(develop_gbtd(s)))


@construct.command("td")
@click.option("--k", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("-o", "--out", default="-")
def construct_td(k, q, out):
    """Transversal design TD(k, q) from field lines."""
    _write(out, dumps_grid(constructions.build_td(k, q)))


@construct.command("drtd")
@click.option("--k", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("-o", "--out", default="-")
def construct_drtd(k, q, out):
    """Doubly resolvable TD(k, q) via a TD(k+2, q)."""
    _write(out, dumps_grid(constructions.drtd_from_td(constructions.build_td(k + 2, q))))


@construct.command("frgbtd-6-8")
@click.option("-o", "--out", default="-")
def construct_frgbtd_6_8(out):
    """The explicit 16x24 frame of type 6^8 over Z_48."""
    _write(out, dumps_grid(build_frgbtd_6_8()))


@construct.command("igbtp-33")
@click.option("-o", "--out", default="-")
def construct_igbtp_33(out):
    """The explicit 33-point incomplete packing with a 4x5 hole."""
    _write(out, dumps_grid(build_igbtp_33()))


@main.command()
@click.argument("recipe")
@click.option("--out-dir", required=True)
def derive(recipe, out_dir):
    """Run a recipe file; every step is verified before the next starts."""
    os.makedirs(out_dir, exist_ok=True)
    steps = constructions.load_recipe(recipe)
    base = os.path.dirname(os.path.abspath(recipe))
    constructions.run_recipe(steps, base, out_dir, verbose=click.echo)


@main.group()
def code():
    """Code-side operations."""


@code.command("to-code")
@click.argument("path")
@click.option("-o", "--out", default="-")
def code_to_code(path, out):
    """Convert a verified holeless array into its symbol-vector code."""
    g = loads_grid(_read(path))
    _write(out, dumps_code(gbtp_to_code(g)))


@code.command("stats")
@click.argument("path")
def code_stats_cmd(path):
    """Print size, distance, weight equity, jam table and bound status."""
    c = loads_code(_read(path))
    click.echo(code_stats(c).describe())


@code.command("bound")
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--m", "--M", "m_", type=int, required=True)
def code_bound(n, d, q, m_):
    """Evaluate the generalized Plotkin bound at (n, d, q, M)."""
    res = plotkin_check(n, d, q, m_)
    status = "equality" if res.equality else ("holds" if res.holds else "violated")
    click.echo("lhs=%d rhs=%d %s" % (res.lhs, res.rhs, status))
    if not res.holds:
        raise _Fail("bound violated")


@code.command("cert-2q3")
@click.option("--m", type=int, required=True)
def code_cert(m):
    """Optimality certificate for the (2m-3, 2m-4) family at size 2m+1."""
    cert = optimality_cert_2q3(m)
    click.echo("m=%d: size %d excluded (lhs=%d > rhs=%d), %d is optimal"
               % (cert.m, cert.M, cert.lhs, cert.rhs, cert.M - 1))


@main.group(name="search")
def search_group():
    """Backtracking searches."""


@search_group.command("eswc")
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--budget", type=int, default=None)
@click.option("-o", "--out", default=None, help="write the witness code")
def search_eswc(n, d, q, budget, out):
    """Maximum equitable-weight code size (exact when exhausted)."""
    res = search.max_eswc(n, d, q, budget=budget)
    cap = search.plotkin_cap(n, d, q)
    # plotkin_cap returns its limit when the bound excludes no size up to it
    click.echo("M=%d exact=%s nodes=%d plotkin_cap=%s"
               % (res.M, res.exact, res.nodes, "none" if cap >= search.PLOTKIN_LIMIT else cap))
    if out:
        _write(out, dumps_code(res.code))


@search_group.command("design")
@click.option("--spec", "spec_path", required=True, help="JSON search parameters")
@click.option("-o", "--out", default="-")
def search_design(spec_path, out):
    """Column-by-column search from a parameter file."""
    params = json.loads(_read(spec_path))
    res = search.search_gbtp(params)
    click.echo("nodes=%d exhausted=%s found=%s"
               % (res.nodes, res.exhausted, res.grid is not None))
    if res.grid is None:
        raise _Fail("nothing found")
    _write(out, dumps_grid(res.grid))


@search_group.command("starter")
@click.option("--kind", required=True,
              type=click.Choice(list(search.STARTER_SEARCHES)))
@click.option("--m", type=int, default=None)
@click.option("--t", type=int, default=None)
@click.option("--w", type=int, default=None)
@click.option("--special", is_flag=True, default=False)
@click.option("--budget", type=int, default=None)
@click.option("-o", "--out", default="-")
def search_starter_cmd(kind, m, t, w, special, budget, out):
    """Find one starter of the given kind."""
    params = {}
    if m is not None:
        params["m"] = m
    if t is not None:
        params["t"] = t
    if w is not None:
        params["w"] = w
    if special:
        params["special"] = True
    res = search.search_starter(kind, params, budget=budget)
    click.echo("nodes=%d exhausted=%s found=%d" % (res.nodes, res.exhausted,
                                                   len(res.starters)))
    if not res.starters:
        raise _Fail("nothing found")
    _write(out, dumps_starter(res.starters[0]))


@search_group.command("coloring")
@click.option("--in", "in_path", required=True)
@click.option("--colors", type=int, required=True)
@click.option("--pi", is_flag=True, default=False)
@click.option("-o", "--out", default="-")
def search_coloring_cmd(in_path, colors, pi, out):
    """Color the blocks so same-color blocks in a row are disjoint."""
    g = loads_grid(_read(in_path))
    res = search.search_coloring(g, colors, want_pi=pi)
    if res.colors is None:
        raise _Fail("no valid coloring")
    _write(out, dumps_grid(dataclasses.replace(g, colors=res.colors)))


def run() -> int:
    try:
        main.main(standalone_mode=False)
        return 0
    except _Fail as exc:
        click.echo(str(exc), err=True)
        return 1
    except (click.UsageError, click.ClickException) as exc:
        click.echo("usage error: %s" % exc, err=True)
        return 2
    except (TforgeError, OSError, json.JSONDecodeError, ValueError) as exc:
        click.echo("error: %s" % exc, err=True)
        return 2
    except click.exceptions.Abort:
        return 2


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
