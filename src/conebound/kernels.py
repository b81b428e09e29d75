"""Generated code: the template kernels that fire instances and the match
kernels that build them.

A template's kernel is the one evaluator of the seven step shapes.
``compile_kernel`` generates it from the template's layout on the
template's first use: the instance is unpacked once into ``s3``, ``s4``,
..., every run is unrolled and the constants are inlined, and each step's
lines (``_KERNEL_STEPS``, per shape) emit every bound of its inequality
that would strictly tighten the store.  Each emitting site appends one
``model.Tightening``, (instance, site number, target slot, value, log
length), and its target position, side, compute kind, const and premise
layout go to the template's site table instead of into the code: the
store builds a Justification from them only when its log is read.  A
kernel names instance positions and catalog constants only, never a key
or a scene.  ``rules.fire`` runs it for the engine, and
``rules.check_instance`` for the fixpoint re-check.

``compile_matcher`` does the same for a law's matcher when it first matches:
one loop over the law's items that builds every instance as one tuple
display of its rule id, facts, template index and key-table lookups, in
the order of the law's key references.

``rules`` imports this module on the first match, fire or re-check, so
``import conebound`` and ``catalog()`` compile none of it.
"""

from __future__ import annotations

from typing import Callable, Union

from .extnat import INF, ext_ceil_div, ext_monus, ext_mul
from .model import Side, Tightening
from .rules import (CondLower, LowerInf, LowerMax, LowerMonus, Match, Matcher, Template, Unify,
                    UpperProd, UpperSum)


# -- kernels --------------------------------------------------------------------


def _plus(*terms: str) -> str:
    return " + ".join(term for term in terms if term) or "0"


def _his(slots: list[str]) -> str:
    return " + ".join(f"hi[{s}]" for s in slots)


def _max(side: str, slots: list[str]) -> str:
    reads = ", ".join(f"{side}[{s}]" for s in slots)
    return f"max({reads})" if len(slots) > 1 else reads


def _upper_sum(emit: Callable, target: str, adds: list, maxes: list, const: int,
               gates: list) -> list[str]:
    rest = "rest" if maxes else str(const or "")
    lines = [f"rest = {_plus(str(const or ''), _max('hi', maxes))}"] if maxes else []
    groups = (maxes, "HI", "max"), (gates, "HI", "gate")
    lines += [f"value = {_plus(rest, _his(adds))}",
              f"if value < hi[{target}]:",
              "    " + emit(target, "HI", "value", "sum", const, (adds, "HI", "add"), *groups)]
    if adds:  # lo(target) = 0 leaves every term at lo 0, which never tightens
        lines.append(f"if rearrange and lo[{target}]:")
    for i, term in enumerate(adds):
        others = adds[:i] + adds[i + 1:]
        lines += [f"    value = ext_monus(lo[{target}], {_plus(rest, _his(others))})",
                  f"    if value > lo[{term}]:",
                  "        " + emit(term, "LO", "value", "monus", const,
                                    ([target], "LO", "base"), (others, "HI", "add"), *groups)]
    if gates:
        return [f"if not ({' or '.join(f'hi[{g}]' for g in gates)}):",
                *("    " + line for line in lines)]
    return lines


def _upper_prod(emit: Callable, target: str, left: str, right: str,
                minus_one: bool) -> list[str]:
    value = (f"ext_monus(ext_mul(hi[{left}] + 1, hi[{right}] + 1), 1)" if minus_one
             else f"ext_mul(hi[{left}], hi[{right}] + 1)")
    lines = [f"value = {value}",
             f"if value < hi[{target}]:",
             "    " + emit(target, "HI", "value", "prod1" if minus_one else "prod0", 0,
                           ([left], "HI", "left"), ([right], "HI", "right")),
             # lo(target) = 0 bounds each factor by at most 0
             f"if rearrange and lo[{target}]:"]
    for factor, other in ((left, right), (right, left)):
        lines += [f"    value = ext_monus(ext_ceil_div(lo[{target}] + 1, hi[{other}] + 1), 1)",
                  f"    if value > lo[{factor}]:",
                  "        " + emit(factor, "LO", "value", "ceil1", 0,
                                    ([target], "LO", "base"), ([other], "HI", "div"))]
    return lines


def _unify(emit: Callable, a: str, b: str) -> list[str]:
    lines = []
    for key, src in ((a, b), (b, a)):
        for side, read, better in (("HI", "hi", "<"), ("LO", "lo", ">")):
            lines += [f"if {read}[{src}] {better} {read}[{key}]:",
                      "    " + emit(key, side, f"{read}[{src}]", "copy", 0,
                                    ([src], side, "copy"))]
    return lines


def _lower_monus(emit: Callable, target: str, base: str, subs: list) -> list[str]:
    return [f"floor = lo[{base}]",
            "if floor:",  # 0 monus anything is 0, and no lo is below 0
            f"    total = {_plus(_his(subs))}",
            f"    if total < floor and floor - total > lo[{target}]:",
            "        " + emit(target, "LO", "floor - total", "monus", 0,
                              ([base], "LO", "base"), (subs, "HI", "add"))]


def _lower_max(emit: Callable, target: str, sources: list) -> list[str]:
    return [f"value = {_max('lo', sources)}",
            f"if value > lo[{target}]:",
            "    " + emit(target, "LO", "value", "maxlo", 0, (sources, "LO", "lo"))]


def _lower_inf(emit: Callable, target: str) -> list[str]:
    return [f"if INF > lo[{target}]:",
            "    " + emit(target, "LO", "INF", "inf", 0)]


def _cond_lower(emit: Callable, target: str, gate: str, floor: str) -> list[str]:
    return [f"if hi[{gate}] < lo[{floor}] and lo[{floor}] > lo[{target}]:",
            "    " + emit(target, "LO", f"lo[{floor}]", "copy", 0,
                          ([gate], "HI", "gate"), ([floor], "LO", "base"))]


# Per shape, the kernel lines of one step from its fields: a slot's local
# name, a run's list of them, or a constant.
_KERNEL_STEPS = {UpperSum: _upper_sum, UpperProd: _upper_prod, Unify: _unify,
                 LowerMonus: _lower_monus, LowerMax: _lower_max, LowerInf: _lower_inf,
                 CondLower: _cond_lower}


def kernel_source(template: Template) -> tuple[str, list[tuple]]:
    """The Python source of ``template``'s kernel, a function ``kernel``,
    and its site table: per emitting site, in the order of the code,
    (target position, side, compute kind, const, premises), each premise
    being (instance position, read side, role).  A slot's local name in
    the kernel is ``s`` followed by its instance position."""
    consts = template.consts
    shift = 2 - len(consts)  # from a position in consts + inst[2:] to one in inst
    sites: list[tuple] = []

    def field(item: Union[int, range]) -> object:
        if type(item) is range:
            return [f"s{p + shift}" for p in item]
        return consts[item] if item < len(consts) else f"s{item + shift}"

    def emit(target: str, side: str, value: str, compute: str, const: int,
             *groups: tuple) -> str:
        """The kernel's line that appends one tightening: the site's
        number, slot and value.  Each premise group (slots, read, role)
        lists the slots whose ``read`` side the computation read."""
        sites.append((int(target[1:]), Side[side], compute, const,
                      tuple((int(s[1:]), Side[read], role)
                            for slots, read, role in groups for s in slots)))
        return (f"out.append(_new(Tightening, (inst, {len(sites) - 1}, {target}, {value}, "
                "len(store.entries))))")

    lines = ["def kernel(inst, store, rearrange):",
             f"    _, _, _, {''.join(f's{j}, ' for j in range(3, template.width + 3))}= inst",
             "    lo, hi = store.lo_values, store.hi_values",
             "    out = []"]
    for step in template.items:
        shape, *fields = map(field, step)
        lines += ("    " + line for line in _KERNEL_STEPS[shape](emit, *fields))
    return "\n".join([*lines, "    return out", ""]), sites


def compile_kernel(template: Template) -> tuple[Callable[..., list[Tightening]], list[tuple]]:
    """``template``'s kernel, which takes (inst, store, rearrange) and returns
    the updates of the instance's steps that would strictly tighten, and
    the site table that those updates number their sites in."""
    source, sites = kernel_source(template)
    namespace = {"_new": tuple.__new__, "Tightening": Tightening,
                 "ext_ceil_div": ext_ceil_div, "ext_monus": ext_monus,
                 "ext_mul": ext_mul, "INF": INF}
    exec(compile(source, "<conebound kernel>", "exec"), namespace)
    return namespace["kernel"], sites


# -- match kernels --------------------------------------------------------------


def matcher_source(matcher: Matcher) -> str:
    """The Python source of ``matcher``'s kernel, a function ``matcher``.

    Per item it builds each instance as one tuple display of its rule id,
    its facts, shared through ``k.facts``, its template's index and key
    table lookups, ``('C44-3', facts, 7, L[n[0]], cl[n[2]], ...)``, in the
    order of the law's key references.  An instance equal to an earlier
    one of the same item is left out."""
    heads = list(dict.fromkeys(head for _, refs in matcher.instances for head, _ in refs))
    rule_id = repr(matcher.rule_id)
    fields = [f"{template}, {''.join(f'{head}[n[{at}]], ' for head, at in refs)}"
              for template, refs in matcher.instances]
    lines = ["def matcher(elab, k):",
             f"    share, {', '.join(heads)}, = k.facts.setdefault, "
             f"{', '.join(f'k.{head}' for head in heads)},"]
    if len(fields) == 1:
        lines.append(f"    return [({rule_id}, share(facts, facts), {fields[0]}) "
                     "for facts, n in items(elab)]")
    else:
        lines += ["    out = []", "    for facts, n in items(elab):",
                  "        facts = share(facts, facts)"]
        for j, field in enumerate(fields):
            lines += [f"        i{j} = ({rule_id}, facts, {field})",
                      f"        if i{j} not in ({''.join(f'i{i}, ' for i in range(j))}):",
                      f"            out.append(i{j})"]
        lines.append("    return out")
    return "\n".join([*lines, ""])


def compile_matcher(matcher: Matcher) -> Callable[..., list[Match]]:
    """``matcher``'s kernel, which takes (elab, keys) and returns the
    instances that the law data of ``matcher`` states."""
    namespace = {"items": matcher.items}
    exec(compile(matcher_source(matcher), f"<conebound matcher {matcher.rule_id}>", "exec"),
         namespace)
    return namespace["matcher"]
