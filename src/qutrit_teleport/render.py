"""Plain-text, Markdown and LaTeX renderers for CLI output.

Rendering is purely presentational; every number passes through the exact
layer first.  JSON is not rendered here: every JSON document, the analyze
and basis documents included, is built by `serialize`.

Every sum of terms, in text and in LaTeX, is written by `_sum`, which
prints ``0`` for an empty one.  The LaTeX gate table mirrors the printed
teleportation-table layout (channel basis state, pre-measurement state,
gate, residual, classification) so a regenerated table can be diffed
against the original side by side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import analysis, engine
from .basis import _check_index, entangled_state, expand_product, family_of, gram_matrix
from .exact import ExtScalar, _signed_terms
from .linalg import Operator3

if TYPE_CHECKING:
    from .published import ErrataReport

ROMAN = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")


def channel_name(i: int, roman: bool = False) -> str:
    i = _check_index("channel", i)
    return f"{i} ({ROMAN[i]})" if roman else str(i)


def _sum(terms, sep: str = " + ") -> str:
    """`terms` joined by `sep`, or ``0`` for an empty sum."""
    return sep.join(terms) or "0"


# -- scalars -------------------------------------------------------------------


def scalar_latex(x: ExtScalar) -> str:
    parts = []
    for sign, mag, surd in _signed_terms(x, ("", "\\sqrt{2}", "\\sqrt{3}", "\\sqrt{6}")):
        if mag.denominator > 1:
            body = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
        else:
            body = "" if surd and mag == 1 else str(mag)
        parts.append(f"{sign}{body}{surd}")
    return _sum(parts, "").removeprefix("+")


# -- kets and gates --------------------------------------------------------------


def entangled_state_text(amps) -> str:
    return _sum(
        f"({amp})|{flat // 3}⟩|{flat % 3}⟩"
        for flat, amp in enumerate(amps)
        if not amp.is_zero()
    )


def _form_text(row) -> str:
    return _sum(f"({c})·c{j}" for j, c in enumerate(row) if not c.is_zero())


def premeasure_text(grid: Operator3) -> str:
    """c-linear receiver state from its coefficient grid (row b = |b>)."""
    forms = enumerate(map(_form_text, grid.rows))
    return _sum(f"[{form}]|{b}⟩" for b, form in forms if form != "0")


def _form_latex(row) -> str:
    terms = (f"({scalar_latex(c)})c_{j}" for j, c in enumerate(row) if not c.is_zero())
    return _sum(terms, "+")


def premeasure_latex(grid: Operator3) -> str:
    forms = enumerate(map(_form_latex, grid.rows))
    return _sum((f"\\big[{form}\\big]\\ket{{{b}}}" for b, form in forms if form != "0"), "+")


def gate_text(g: Operator3) -> str:
    width = max(len(str(g.entry(r, c))) for r in range(3) for c in range(3))
    lines = []
    for r in range(3):
        cells = ", ".join(f"{g.entry(r, c)!s:>{width}}" for c in range(3))
        lines.append(f"  [ {cells} ]")
    return "\n".join(lines)


def gate_latex(g: Operator3) -> str:
    rows = " \\\\ ".join(
        " & ".join(scalar_latex(g.entry(r, c)) for c in range(3)) for r in range(3)
    )
    return f"\\begin{{pmatrix}} {rows} \\end{{pmatrix}}"


# -- basis documents --------------------------------------------------------------


def basis_text() -> str:
    lines = ["Entangled two-qutrit basis (site pair A2,B)", ""]
    for i in range(9):
        ket = entangled_state_text(entangled_state(i).flat())
        lines.append(f"Psi_{i} [{family_of(i)}]: {ket}")
    lines.append("")
    lines.append("Gram matrix <Psi_a|Psi_b>:")
    for row in gram_matrix():
        lines.append("  [" + ", ".join(str(x) for x in row) + "]")
    lines.append("")
    lines.append("Inversion rows |a2>|b> = sum_i coeff_i |Psi_i>:")
    for a2 in range(3):
        for b in range(3):
            row = expand_product(a2, b).coefficients
            terms = (f"({c})Psi_{i}" for i, c in enumerate(row) if not c.is_zero())
            lines.append(f"  |{a2}>|{b}> = {_sum(terms)}")
    return "\n".join(lines) + "\n"


def basis_latex() -> str:
    lines = ["% entangled basis states", "\\begin{align}"]
    for i in range(9):
        terms = (
            f"({scalar_latex(amp)})\\ket{{{flat // 3}_{{A_2}}}}\\ket{{{flat % 3}_B}}"
            for flat, amp in enumerate(entangled_state(i).flat())
            if not amp.is_zero()
        )
        sep = "\\\\" if i < 8 else ""
        lines.append(f"\\ket{{\\Psi_{{{i}}}}}_{{A_2B}} &= {_sum(terms, '+')} {sep}")
    lines.append("\\end{align}")
    return "\n".join(lines) + "\n"


# -- gate table documents -----------------------------------------------------------


def derive_entry_text(i: int, k: int, roman: bool = False) -> str:
    """One gate on its own: the pre-measurement state and the matrix."""
    gate = engine.derive_gate(i, k)
    return (
        f"Channel {channel_name(i, roman)}, outcome {k}\n"
        f"premeasure = {premeasure_text(gate)}\n"
        f"{gate_text(gate)}\n"
    )


def derive_text(channels, roman: bool = False, outcomes=range(9)) -> str:
    lines = []
    for i in channels:
        lines.append(f"Channel {channel_name(i, roman)}")
        for k in outcomes:
            gate = engine.derive_gate(i, k)
            profile = analysis.channel_profiles(i)[k]
            lines.append(f" outcome {k}: premeasure = {premeasure_text(gate)}")
            lines.append(f"  gate ({profile.classification}, rank {profile.rank}):")
            lines.append(gate_text(gate))
        lines.append("")
    return "\n".join(lines) + "\n"


def derive_latex(channels, roman: bool = False, outcomes=range(9)) -> str:
    lines = []
    for i in channels:
        lines.append(f"% teleportation table, channel {channel_name(i, roman)}")
        lines.append("\\begin{tabular}{ccccc}")
        lines.append("\\toprule")
        lines.append(
            "Sender basis state & Pre-measurement state & Gate & $\\Delta_{QT}$ & Class \\\\"
        )
        lines.append("\\midrule")
        for k in outcomes:
            gate = engine.derive_gate(i, k)
            profile = analysis.channel_profiles(i)[k]
            delta_tex = premeasure_latex(engine.delta_qt(i, k, gate))
            lines.append(
                f"$\\ket{{\\Psi_{{{k}}}}}$ & "
                f"${premeasure_latex(gate)}$ & "
                f"${gate_latex(gate)}$ & ${delta_tex}$ & "
                f"{profile.classification.replace('_', ' ')} \\\\"
            )
        lines.append("\\bottomrule")
        lines.append("\\end{tabular}")
        lines.append("")
    return "\n".join(lines) + "\n"


# -- errata documents ----------------------------------------------------------------


def _md(cell: str) -> str:
    return cell.replace("|", "\\|")


def errata_markdown(report: ErrataReport, roman: bool = False) -> str:
    lines = ["# Errata report", ""]
    lines.append("Summary by discrepancy class:")
    lines.append("")
    for name, count in sorted(report.summary.items()):
        lines.append(f"- `{name}`: {count}")
    lines.append("")
    by_channel = {}
    doc_level = []
    for e in report.entries:
        if e.channel is None:
            doc_level.append(e)
        else:
            by_channel.setdefault(e.channel, []).append(e)

    lines.append("## Document-level entries")
    lines.append("")
    lines.append("| location | printed label | kind | discrepancy | notes |")
    lines.append("| --- | --- | --- | --- | --- |")
    for e in doc_level:
        lines.append(
            f"| {_md(e.location)} | {_md(e.printed_label)} | {e.kind} "
            f"| {e.discrepancy} | {_md(e.notes)} |"
        )
    lines.append("")

    for channel in sorted(by_channel):
        lines.append(f"## Channel {channel_name(channel, roman)}")
        lines.append("")
        lines.append("| outcome | kind | location | printed label | discrepancy | notes |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        for e in by_channel[channel]:
            lines.append(
                f"| {e.outcome} | {e.kind} | {_md(e.location)} | {_md(e.printed_label)} "
                f"| {e.discrepancy} | {_md(e.notes)} |"
            )
        lines.append("")
    return "\n".join(lines) + "\n"


def errata_latex(report: ErrataReport) -> str:
    lines = ["% errata table", "\\begin{tabular}{llllp{5cm}}", "\\toprule"]
    lines.append("Location & Label & Kind & Discrepancy & Notes \\\\")
    lines.append("\\midrule")
    for e in report.entries:
        if e.discrepancy == "match":
            continue
        lines.append(
            f"{e.location} & {e.printed_label} & {e.kind} & {e.discrepancy} & {e.notes} \\\\"
        )
    lines.append("\\bottomrule")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


# -- analysis documents -----------------------------------------------------------------


def analysis_markdown(channels, roman: bool = False) -> str:
    lines = ["# Gate analysis", ""]
    for i in channels:
        complete = analysis.completeness(i) == Operator3.identity()
        census = analysis.channel_census(i)
        lines.append(f"## Channel {channel_name(i, roman)}")
        lines.append("")
        lines.append(
            f"Completeness sum_k G^T G = identity: **{'yes' if complete else 'NO'}**"
        )
        census_text = ", ".join(f"{name}: {count}" for name, count in sorted(census.items()))
        lines.append(f"Gate census: {census_text}")
        lines.append("")
        lines.append(
            "| outcome | tr G^T G | ||G^T G - I||_F^2 | scaled deviation | rank | class |"
        )
        lines.append("| --- | --- | --- | --- | --- | --- |")
        for k, p in enumerate(analysis.channel_profiles(i)):
            lines.append(
                f"| {k} | {p.frobenius_norm_sq} "
                f"| {p.unitarity_deviation_sq} "
                f"| {p.scaled_unitarity_deviation_sq} "
                f"| {p.rank} | {p.classification} |"
            )
        lines.append("")
    return "\n".join(lines) + "\n"
