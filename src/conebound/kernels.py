"""Generated code: the template kernels that fire instances and the match
kernels that build them.

A template's kernel is the one evaluator of the seven step shapes.
``compile_kernel`` generates it from the template's layout on the
template's first use: the body is unpacked once into ``s1``, ``s2``, ...,
every run is unrolled and the constants are inlined, and each step's
lines (``_KERNEL_STEPS``, per shape) emit every bound of its inequality
that would strictly tighten the store: each emitting site builds its
``Justification`` and ``Premise`` records inline, with its target, side,
compute kind and premise layout written into the code.  A kernel names
body positions and catalog constants only, never a key or a scene.
``rules.fire`` runs it for the engine, and ``rules.check_instance`` for
the fixpoint re-check.

``compile_matcher`` does the same for a law's matcher when it first matches:
one loop over the law's items that builds every body as a tuple display
of key-table lookups, in the order of the law's key references.

``rules`` imports this module on the first match, fire or re-check, so
``import conebound`` and ``catalog()`` compile none of it.
"""

from __future__ import annotations

from typing import Callable, Union

from .extnat import INF, ext_ceil_div, ext_monus, ext_mul
from .model import Justification, Premise, Side
from .rules import (CondLower, LowerInf, LowerMax, LowerMonus, Match, Matcher, Template, Unify,
                    UpperProd, UpperSum)

HI, LO = Side.HI, Side.LO


# -- kernels --------------------------------------------------------------------


def _plus(*terms: str) -> str:
    return " + ".join(term for term in terms if term) or "0"


def _his(slots: list[str]) -> str:
    return " + ".join(f"hi[{s}]" for s in slots)


def _max(side: str, slots: list[str]) -> str:
    reads = ", ".join(f"{side}[{s}]" for s in slots)
    return f"max({reads})" if len(slots) > 1 else reads


def _emitting(target: str, side: str, value: str, compute: str, const: int,
              *groups: tuple) -> str:
    """The kernel's line that appends one tightening's justification.  Its
    premises, per (slots, side, role) group, snapshot each value and log
    index, as later tightenings move them.  Neither record checks its
    fields, so both are built as plain tuples of their class, without the
    named tuples' Python-level __new__."""
    premises = "".join(f"_new(Premise, (store.keys[{s}], {read}, {read.lower()}[{s}], {role!r}, "
                       f"store.{read.lower()}_sources[{s}])), "
                       for slots, read, role in groups for s in slots)
    return (f"out.append(_new(Justification, (inst[0], store.keys[{target}], {side}, {value}, "
            f"{compute!r}, {const}, ({premises}), inst[1])))")


def _upper_sum(target: str, adds: list, maxes: list, const: int, gates: list) -> list[str]:
    rest = "rest" if maxes else str(const or "")
    lines = [f"rest = {_plus(str(const or ''), _max('hi', maxes))}"] if maxes else []
    groups = (maxes, "HI", "max"), (gates, "HI", "gate")
    lines += [f"value = {_plus(rest, _his(adds))}",
              f"if value < hi[{target}]:",
              "    " + _emitting(target, "HI", "value", "sum", const, (adds, "HI", "add"), *groups)]
    if adds:  # lo(target) = 0 leaves every term at lo 0, which never tightens
        lines.append(f"if rearrange and lo[{target}]:")
    for i, term in enumerate(adds):
        others = adds[:i] + adds[i + 1:]
        lines += [f"    value = ext_monus(lo[{target}], {_plus(rest, _his(others))})",
                  f"    if value > lo[{term}]:",
                  "        " + _emitting(term, "LO", "value", "monus", const,
                                         ([target], "LO", "base"), (others, "HI", "add"), *groups)]
    if gates:
        return [f"if not ({' or '.join(f'hi[{g}]' for g in gates)}):",
                *("    " + line for line in lines)]
    return lines


def _upper_prod(target: str, left: str, right: str, minus_one: bool) -> list[str]:
    value = (f"ext_monus(ext_mul(hi[{left}] + 1, hi[{right}] + 1), 1)" if minus_one
             else f"ext_mul(hi[{left}], hi[{right}] + 1)")
    lines = [f"value = {value}",
             f"if value < hi[{target}]:",
             "    " + _emitting(target, "HI", "value", "prod1" if minus_one else "prod0", 0,
                                ([left], "HI", "left"), ([right], "HI", "right")),
             # lo(target) = 0 bounds each factor by at most 0
             f"if rearrange and lo[{target}]:"]
    for factor, other in ((left, right), (right, left)):
        lines += [f"    value = ext_monus(ext_ceil_div(lo[{target}] + 1, hi[{other}] + 1), 1)",
                  f"    if value > lo[{factor}]:",
                  "        " + _emitting(factor, "LO", "value", "ceil1", 0,
                                         ([target], "LO", "base"), ([other], "HI", "div"))]
    return lines


def _unify(a: str, b: str) -> list[str]:
    lines = []
    for key, src in ((a, b), (b, a)):
        for side, read, better in (("HI", "hi", "<"), ("LO", "lo", ">")):
            lines += [f"if {read}[{src}] {better} {read}[{key}]:",
                      "    " + _emitting(key, side, f"{read}[{src}]", "copy", 0,
                                         ([src], side, "copy"))]
    return lines


def _lower_monus(target: str, base: str, subs: list) -> list[str]:
    return [f"floor = lo[{base}]",
            "if floor:",  # 0 monus anything is 0, and no lo is below 0
            f"    total = {_plus(_his(subs))}",
            f"    if total < floor and floor - total > lo[{target}]:",
            "        " + _emitting(target, "LO", "floor - total", "monus", 0,
                                   ([base], "LO", "base"), (subs, "HI", "add"))]


def _lower_max(target: str, sources: list) -> list[str]:
    return [f"value = {_max('lo', sources)}",
            f"if value > lo[{target}]:",
            "    " + _emitting(target, "LO", "value", "maxlo", 0, (sources, "LO", "lo"))]


def _lower_inf(target: str) -> list[str]:
    return [f"if INF > lo[{target}]:",
            "    " + _emitting(target, "LO", "INF", "inf", 0)]


def _cond_lower(target: str, gate: str, floor: str) -> list[str]:
    return [f"if hi[{gate}] < lo[{floor}] and lo[{floor}] > lo[{target}]:",
            "    " + _emitting(target, "LO", f"lo[{floor}]", "copy", 0,
                               ([gate], "HI", "gate"), ([floor], "LO", "base"))]


# Per shape, the kernel lines of one step from its fields: a slot's local
# name, a run's list of them, or a constant.
_KERNEL_STEPS = {UpperSum: _upper_sum, UpperProd: _upper_prod, Unify: _unify,
                 LowerMonus: _lower_monus, LowerMax: _lower_max, LowerInf: _lower_inf,
                 CondLower: _cond_lower}


def kernel_source(template: Template) -> str:
    """The Python source of ``template``'s kernel, a function ``kernel``."""
    base = len(template.consts)

    def field(item: Union[int, range]) -> object:
        if type(item) is range:
            return [f"s{p - base}" for p in item]
        return template.consts[item] if item < base else f"s{item - base}"

    lines = ["def kernel(inst, store, rearrange):",
             f"    _, {''.join(f's{j}, ' for j in range(1, template.width + 1))}= inst[2]",
             "    lo, hi = store.lo_values, store.hi_values",
             "    out = []"]
    for step in template.items:
        shape, *fields = map(field, step)
        lines += ("    " + line for line in _KERNEL_STEPS[shape](*fields))
    return "\n".join([*lines, "    return out", ""])


def compile_kernel(template: Template) -> Callable[..., list[Justification]]:
    """``template``'s kernel, which takes (inst, store, rearrange) and returns
    the updates of the instance's steps that would strictly tighten."""
    namespace = {"_new": tuple.__new__, "Justification": Justification, "Premise": Premise,
                 "ext_ceil_div": ext_ceil_div, "ext_monus": ext_monus,
                 "ext_mul": ext_mul, "INF": INF, "HI": HI, "LO": LO}
    exec(compile(kernel_source(template), "<conebound kernel>", "exec"), namespace)
    return namespace["kernel"]


# -- match kernels --------------------------------------------------------------


def matcher_source(matcher: Matcher) -> str:
    """The Python source of ``matcher``'s kernel, a function ``matcher``.

    Per item it builds each instance's body as one tuple display of key
    table lookups, ``(T0, L[n[0]], cl[n[2]], ...)``, in the order of the
    law's key references.  An instance equal to an earlier one of the same
    item is left out."""
    heads = list(dict.fromkeys(head for _, refs in matcher.instances for head, _ in refs))
    bodies = [f"(T{j}, {''.join(f'{head}[n[{at}]], ' for head, at in refs)})"
              for j, (_, refs) in enumerate(matcher.instances)]
    rule_id = repr(matcher.rule_id)
    lines = ["def matcher(elab, k):",
             f"    {', '.join(heads)}, = {', '.join(f'k.{head}' for head in heads)},"]
    if len(bodies) == 1:
        lines.append(f"    return [({rule_id}, facts, {bodies[0]}) for facts, n in items(elab)]")
    else:
        lines += ["    out = []", "    for facts, n in items(elab):",
                  f"        b0 = {bodies[0]}", f"        out.append(({rule_id}, facts, b0))"]
        for j, body in enumerate(bodies[1:], 1):
            lines += [f"        b{j} = {body}",
                      f"        if b{j} not in ({''.join(f'b{i}, ' for i in range(j))}):",
                      f"            out.append(({rule_id}, facts, b{j}))"]
        lines.append("    return out")
    return "\n".join([*lines, ""])


def compile_matcher(matcher: Matcher) -> Callable[..., list[Match]]:
    """``matcher``'s kernel, which takes (elab, keys) and returns the
    instances that the law data of ``matcher`` states."""
    namespace = {"items": matcher.items,
                 **{f"T{j}": template for j, (template, _) in enumerate(matcher.instances)}}
    exec(compile(matcher_source(matcher), f"<conebound matcher {matcher.rule_id}>", "exec"),
         namespace)
    return namespace["matcher"]
