"""Docs health: no dead intra-repo links, and the quickstart really runs.

Two contracts keep the documentation suite from rotting:

* every relative markdown link in ``docs/*.md`` and ``README.md`` must
  resolve to a file that exists in the repository (http/https/mailto
  links and pure in-page anchors are out of scope — no network here);
* every fenced ``bash`` block in the README's **Quickstart** section is
  executed as a smoke command (with ``src`` on ``PYTHONPATH``, so the
  commands work uninstalled exactly as written for an installed
  package).  Put slow or illustrative commands in other sections — the
  Quickstart fences are the executable ones by convention, which is
  also what the CI docs-health step relies on.
"""

import os
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

#: [label](target) — target captured up to the closing paren (markdown
#: titles/whitespace in targets are not used in this repo)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")


def _strip_fenced_blocks(text):
    """Markdown with fenced code blocks removed (links inside snippets
    are code, not navigation)."""
    out, in_fence = [], False
    for line in text.splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def _relative_links(path):
    for target in LINK_RE.findall(_strip_fenced_blocks(path.read_text())):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(doc):
    missing = []
    for target in _relative_links(doc):
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        if not (doc.parent / rel).exists():
            missing.append(target)
    assert not missing, f"{doc.relative_to(ROOT)}: dead links {missing}"


def test_every_doc_page_is_reachable_from_readme():
    """README links every page under docs/ (directly or via one hop)."""
    reachable = set()
    frontier = [ROOT / "README.md"]
    seen = set()
    while frontier:
        doc = frontier.pop()
        if doc in seen or not doc.exists():
            continue
        seen.add(doc)
        for target in _relative_links(doc):
            resolved = (doc.parent / target.split("#", 1)[0]).resolve()
            if resolved.suffix == ".md":
                reachable.add(resolved)
                frontier.append(resolved)
    unreachable = [
        p.name for p in (ROOT / "docs").glob("*.md") if p.resolve() not in reachable
    ]
    assert not unreachable, f"docs pages not linked from README: {unreachable}"


# ---------------------------------------------------------------- quickstart


def _quickstart_blocks():
    """The fenced ``bash`` blocks of README.md's Quickstart section."""
    lines = (ROOT / "README.md").read_text().splitlines()
    blocks, block, in_section, fence_lang = [], [], False, None
    for line in lines:
        if line.startswith("## "):
            in_section = line.strip() == "## Quickstart"
            continue
        if not in_section:
            continue
        m = FENCE_RE.match(line)
        if m:
            if fence_lang is None:
                fence_lang = m.group(1)
            else:
                if fence_lang == "bash" and block:
                    blocks.append("\n".join(block))
                block, fence_lang = [], None
            continue
        if fence_lang is not None:
            block.append(line)
    return blocks


QUICKSTART_BLOCKS = _quickstart_blocks()


def test_quickstart_has_smoke_commands():
    assert len(QUICKSTART_BLOCKS) >= 3, (
        "README Quickstart lost its executable bash fences; the smoke "
        "coverage below silently disappears without them"
    )


@pytest.mark.parametrize(
    "block",
    QUICKSTART_BLOCKS,
    ids=[b.splitlines()[0][:60] for b in QUICKSTART_BLOCKS],
)
def test_quickstart_block_runs(block):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        ["bash", "-ec", block],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, (
        f"quickstart block failed (exit {proc.returncode}):\n{block}\n"
        f"--- stdout ---\n{proc.stdout[-2000:]}\n"
        f"--- stderr ---\n{proc.stderr[-2000:]}"
    )


# ---------------------------------------------------------------- python floor


def _version(text):
    return tuple(int(part) for part in text.split("."))


def test_python_floor_agrees_across_readme_pyproject_and_ci():
    """README's floor, ``requires-python`` and the oldest CI matrix entry
    name one version: a floor CI never runs is a promise nobody checks."""
    readme = re.search(
        r"Python ≥ (\d+\.\d+)", (ROOT / "README.md").read_text()
    ).group(1)
    requires = re.search(
        r'^requires-python = ">=(\d+\.\d+)"$',
        (ROOT / "pyproject.toml").read_text(),
        re.MULTILINE,
    ).group(1)
    matrix = re.search(
        r"^\s*python-version: \[([^\]]*)\]$",
        (ROOT / ".github" / "workflows" / "ci.yml").read_text(),
        re.MULTILINE,
    ).group(1)
    oldest_ci = min(
        (v.strip().strip("\"'") for v in matrix.split(",")), key=_version
    )
    assert readme == requires == oldest_ci, (
        f"README says {readme}, requires-python {requires}, "
        f"CI's oldest matrix entry {oldest_ci}"
    )
