"""Adversarial mutators over the three untrusted artifacts.

Trust: **advisory** — mutation strategies for fuzzing.

The kernel's trust story (docs/TRUSTED_BASE.md) is that the translator, the
hint stream, and the certificate text are all *untrusted*: a bug or a lie
in any of them must be caught by the trusted reparse+check path.  Each
mutator in this module attacks exactly one soundness property of that
story and is tagged with it:

* **Boogie mutators** simulate translator bugs — the generated code no
  longer simulates the Viper statement (swapped literals, dropped or
  duplicated or reordered commands, asserts weakened to assumes, retargeted
  state updates, truncated obligations), or a background axiom is no
  longer one of the schemas the kernel recognises
  (:func:`axiom_perturbations`);
* **hint mutators** simulate a lying tactic/instrumentation — the proof
  tree claims a different translation variant than the one emitted
  (wd-check flags flipped both ways, fast-path claims against temp-based
  code, aliasing auxiliary variables, reordered or dropped sub-proofs,
  omitted heap havocs);
* **certificate-text mutators** corrupt the serialised ``.cert`` artifact
  at the token and rule level; each cites the section of
  ``docs/CERTIFICATE_FORMAT.md`` whose guarantee it violates.

A fourth family targets the *incrementality* layer rather than the
kernel: :func:`mutate_single_method` performs a semantically inert
single-method **source** edit (an appended ``assert true``, or ``&&
true`` conjoined onto the postcondition) so the driver can re-run the
pipeline against a warm unit cache and assert that exactly the units the
dependency map invalidates — the mutated unit, plus its transitive
callers iff the edit touched the spec — were rebuilt.

Every mutator is deterministic given a ``random.Random`` and returns
``None`` when it is not applicable to the subject (so drivers can fall
through to the next mutator).  A mutator never returns an *unchanged*
artifact: the produced :class:`Mutation` always differs from the pristine
subject, which is what lets the driver classify a kernel acceptance of a
mutant as a finding rather than noise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from ..boogie.ast import (
    Assign,
    Assume,
    AxiomDecl,
    BAssert,
    BBinOp,
    BBinOpKind,
    BIf,
    BIntLit,
    BRealLit,
    BUnOp,
    BUnOpKind,
    BVar,
    CondB,
    Forall,
    FuncApp,
    Havoc,
    MapSelect,
    MapStore,
    Procedure,
    SimpleCmd,
    StmtBlock,
    subst_expr,
)
from ..certification.prooftree import (
    parse_program_certificate,
    ProgramCertificate,
    render_program_certificate,
)
from ..certification.rules import RULE_NAMES
from ..certification.tactic import generate_program_certificate, ProofGenError
from ..frontend.hints import (
    AccHint,
    AssertHint,
    AssertionHint,
    CallHint,
    CondHint,
    ExhaleHint,
    IfHint,
    ImpliesHint,
    InhaleHint,
    MethodHint,
    SepHint,
    SeqHint,
    SkipHint,
    SpecWellFormednessHint,
)
from ..frontend.translator import TranslationResult
from ..viper.ast import (
    AssertStmt,
    Program as ViperProgram,
    Seq as ViperSeq,
    SepConj as ViperSepConj,
    TRUE_ASSERTION,
)
from ..viper.pretty import pretty_program

__all__ = [
    "axiom_perturbations",
    "Mutation",
    "MutationSubject",
    "Mutator",
    "MUTATORS",
    "MUTATORS_BY_NAME",
    "SourceMutation",
    "make_subject",
    "mutate_single_method",
    "normalize_certificate",
]


# ---------------------------------------------------------------------------
# Subjects and mutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutationSubject:
    """The pristine artifacts of one translation run (before corruption)."""

    result: TranslationResult
    certificate: ProgramCertificate
    certificate_text: str


@dataclass(frozen=True)
class Mutation:
    """One corrupted artifact set, ready for the trusted path to judge.

    ``result`` carries the (possibly mutated) Boogie program;
    ``certificate_text`` carries the (possibly corrupted) serialised
    certificate.  Exactly one of the two differs from the pristine subject
    — which one is recorded in ``artifact``.
    """

    mutator: str
    artifact: str  # "boogie" | "hints" | "cert"
    result: TranslationResult
    certificate_text: str
    detail: str


def make_subject(result: TranslationResult) -> MutationSubject:
    """Build the pristine subject (certificate generated and rendered)."""
    certificate = generate_program_certificate(result)
    return MutationSubject(
        result=result,
        certificate=certificate,
        certificate_text=render_program_certificate(certificate),
    )


def normalize_certificate(cert: ProgramCertificate) -> ProgramCertificate:
    """Erase advisory fields before semantic-equality comparison.

    The ``depends`` lines of the text format (CERTIFICATE_FORMAT.md §3)
    are advisory *to the kernel* — it recomputes dependencies from the
    CALL-SIM nodes it checks — so two certificates differing only there
    denote the same proof.  (The untrusted unit-cache layer does read
    them for invalidation routing, but that never affects a verdict.)
    """
    return ProgramCertificate(
        tuple(replace(m, dependencies=()) for m in cert.methods)
    )


@dataclass(frozen=True)
class Mutator:
    """One named adversarial corruption.

    ``attacks`` names the soundness property the corruption targets (what
    the kernel must catch); ``spec_section`` cites the
    docs/CERTIFICATE_FORMAT.md section for certificate-text corruption.
    """

    name: str
    artifact: str  # "boogie" | "hints" | "cert"
    attacks: str
    apply: Callable[[random.Random, MutationSubject], Optional[Mutation]]
    spec_section: str = ""


# ---------------------------------------------------------------------------
# Boogie program mutators (simulated translator bugs)
# ---------------------------------------------------------------------------


def _procedures(subject: MutationSubject) -> List[str]:
    """Covered procedure names, in deterministic (certificate) order."""
    return [cert.procedure for cert in subject.certificate.methods]


def _with_procedure(result: TranslationResult, proc: Procedure) -> TranslationResult:
    procedures = tuple(
        proc if p.name == proc.name else p for p in result.boogie_program.procedures
    )
    return replace(
        result, boogie_program=replace(result.boogie_program, procedures=procedures)
    )


def _edit_commands(body, editor):
    """Rebuild a Boogie statement, mapping each command through ``editor``.

    ``editor(cmd, index)`` returns ``None`` to keep the command or a list
    of replacement commands; ``index`` is the global preorder position.
    """
    counter = itertools.count()

    def walk(stmt):
        blocks = []
        for block in stmt:
            cmds: List[SimpleCmd] = []
            for cmd in block.cmds:
                index = next(counter)
                replacement = editor(cmd, index)
                cmds.extend([cmd] if replacement is None else replacement)
            ifopt = block.ifopt
            if ifopt is not None:
                ifopt = BIf(ifopt.cond, walk(ifopt.then), walk(ifopt.otherwise))
            blocks.append(StmtBlock(tuple(cmds), ifopt))
        return tuple(blocks)

    return walk(body)


def _command_indices(body, predicate) -> List[int]:
    """Preorder indices of commands satisfying ``predicate``."""
    hits: List[int] = []

    def editor(cmd, index):
        if predicate(cmd):
            hits.append(index)
        return None

    _edit_commands(body, editor)
    return hits


def _boogie_mutation(
    rng: random.Random,
    subject: MutationSubject,
    name: str,
    predicate,
    rewrite,
    detail: str,
) -> Optional[Mutation]:
    """Apply ``rewrite`` to one random command matching ``predicate``."""
    for proc_name in _shuffled(rng, _procedures(subject)):
        proc = subject.result.boogie_program.procedure(proc_name)
        hits = _command_indices(proc.body, predicate)
        if not hits:
            continue
        target = hits[rng.randrange(len(hits))]

        def editor(cmd, index):
            return rewrite(cmd) if index == target else None

        body = _edit_commands(proc.body, editor)
        if body == proc.body:
            continue
        mutated = Procedure(proc.name, proc.locals, body)
        return Mutation(
            mutator=name,
            artifact="boogie",
            result=_with_procedure(subject.result, mutated),
            certificate_text=subject.certificate_text,
            detail=f"{detail} in {proc_name} at command #{target}",
        )
    return None


def _shuffled(rng: random.Random, items: Sequence) -> List:
    items = list(items)
    rng.shuffle(items)
    return items


def _rewrite_int_literals(expr, bump):
    """Replace the first embedded int literal via ``bump`` (bottom-up)."""
    if isinstance(expr, BIntLit):
        return bump(expr)
    if isinstance(expr, FuncApp):
        return FuncApp(
            expr.name, expr.type_args,
            tuple(_rewrite_int_literals(a, bump) for a in expr.args),
        )
    if isinstance(expr, BBinOp):
        return BBinOp(
            expr.op,
            _rewrite_int_literals(expr.left, bump),
            _rewrite_int_literals(expr.right, bump),
        )
    if isinstance(expr, BUnOp):
        return BUnOp(expr.op, _rewrite_int_literals(expr.operand, bump))
    if isinstance(expr, CondB):
        return CondB(
            _rewrite_int_literals(expr.cond, bump),
            _rewrite_int_literals(expr.then, bump),
            _rewrite_int_literals(expr.otherwise, bump),
        )
    if isinstance(expr, MapSelect):
        return MapSelect(
            _rewrite_int_literals(expr.map, bump),
            tuple(_rewrite_int_literals(a, bump) for a in expr.args),
        )
    if isinstance(expr, MapStore):
        return MapStore(
            _rewrite_int_literals(expr.map, bump),
            tuple(_rewrite_int_literals(a, bump) for a in expr.args),
            _rewrite_int_literals(expr.value, bump),
        )
    return expr


def _has_int_literal(expr) -> bool:
    marker: List[bool] = []

    def bump(lit):
        marker.append(True)
        return lit

    _rewrite_int_literals(expr, bump)
    return bool(marker)


def _cmd_expr(cmd):
    if isinstance(cmd, (Assume, BAssert)):
        return cmd.expr
    if isinstance(cmd, Assign):
        return cmd.rhs
    return None


def _mut_swap_literal(rng: random.Random, subject: MutationSubject) -> Optional[Mutation]:
    def predicate(cmd):
        expr = _cmd_expr(cmd)
        return expr is not None and _has_int_literal(expr)

    def rewrite(cmd):
        def bump(lit: BIntLit) -> BIntLit:
            return BIntLit(lit.value + 1)

        if isinstance(cmd, Assume):
            return [Assume(_rewrite_int_literals(cmd.expr, bump))]
        if isinstance(cmd, BAssert):
            return [BAssert(_rewrite_int_literals(cmd.expr, bump))]
        if isinstance(cmd, Assign):
            return [Assign(cmd.target, _rewrite_int_literals(cmd.rhs, bump))]
        return None  # pragma: no cover

    return _boogie_mutation(
        rng, subject, "boogie-swap-literal", predicate, rewrite,
        "integer literal incremented",
    )


def _mut_weaken_assert(rng: random.Random, subject: MutationSubject) -> Optional[Mutation]:
    return _boogie_mutation(
        rng, subject, "boogie-weaken-assert",
        lambda cmd: isinstance(cmd, BAssert),
        lambda cmd: [Assume(cmd.expr)],
        "assert weakened to assume",
    )


def _mut_drop_command(rng: random.Random, subject: MutationSubject) -> Optional[Mutation]:
    return _boogie_mutation(
        rng, subject, "boogie-drop-command",
        lambda cmd: True,
        lambda cmd: [],
        "command deleted",
    )


def _mut_duplicate_command(rng: random.Random, subject: MutationSubject) -> Optional[Mutation]:
    return _boogie_mutation(
        rng, subject, "boogie-duplicate-command",
        lambda cmd: True,
        lambda cmd: [cmd, cmd],
        "command duplicated",
    )


def _mut_retarget_assign(rng: random.Random, subject: MutationSubject) -> Optional[Mutation]:
    records = {
        cert.procedure: cert.record for cert in subject.certificate.methods
    }

    for proc_name in _shuffled(rng, _procedures(subject)):
        record = records[proc_name]

        def predicate(cmd):
            return isinstance(cmd, Assign) and cmd.target in (
                record.heap_var, record.mask_var
            )

        def rewrite(cmd):
            other = (
                record.mask_var if cmd.target == record.heap_var else record.heap_var
            )
            return [Assign(other, cmd.rhs)]

        one_proc_subject = subject  # mutate within this procedure only
        mutation = _boogie_mutation(
            rng, one_proc_subject, "boogie-retarget-assign", predicate, rewrite,
            "state update retargeted to the wrong global",
        )
        if mutation is not None:
            return mutation
    return None


def _mut_swap_adjacent(rng: random.Random, subject: MutationSubject) -> Optional[Mutation]:
    for proc_name in _shuffled(rng, _procedures(subject)):
        proc = subject.result.boogie_program.procedure(proc_name)
        # Collect indices i such that commands i and i+1 sit in one block
        # and differ.
        pairs: List[int] = []
        counter = itertools.count()

        def scan(stmt):
            for block in stmt:
                base = None
                for offset, cmd in enumerate(block.cmds):
                    index = next(counter)
                    if offset == 0:
                        base = index
                    if offset + 1 < len(block.cmds) and block.cmds[offset] != block.cmds[offset + 1]:
                        pairs.append(index)
                if block.ifopt is not None:
                    scan(block.ifopt.then)
                    scan(block.ifopt.otherwise)

        scan(proc.body)
        if not pairs:
            continue
        target = pairs[rng.randrange(len(pairs))]
        swapped: List[SimpleCmd] = []

        def editor(cmd, index):
            if index == target:
                swapped.append(cmd)
                return []
            if index == target + 1:
                return [cmd] + swapped
            return None

        body = _edit_commands(proc.body, editor)
        if body == proc.body:  # pragma: no cover - pairs guarantee change
            continue
        mutated = Procedure(proc.name, proc.locals, body)
        return Mutation(
            mutator="boogie-swap-adjacent",
            artifact="boogie",
            result=_with_procedure(subject.result, mutated),
            certificate_text=subject.certificate_text,
            detail=f"adjacent commands swapped in {proc_name} at #{target}",
        )
    return None


def _mut_truncate_body(rng: random.Random, subject: MutationSubject) -> Optional[Mutation]:
    for proc_name in _shuffled(rng, _procedures(subject)):
        proc = subject.result.boogie_program.procedure(proc_name)
        total = len(_command_indices(proc.body, lambda cmd: True))
        if total <= 1:
            continue
        keep = rng.randrange(1, total)

        def editor(cmd, index):
            return None if index < keep else []

        body = _edit_commands(proc.body, editor)
        if body == proc.body:
            continue
        mutated = Procedure(proc.name, proc.locals, body)
        return Mutation(
            mutator="boogie-truncate-body",
            artifact="boogie",
            result=_with_procedure(subject.result, mutated),
            certificate_text=subject.certificate_text,
            detail=f"body of {proc_name} truncated after {keep} commands",
        )
    return None


_SWAP = {BBinOpKind.EQ: BBinOpKind.NE, BBinOpKind.NE: BBinOpKind.EQ}


def _rebuild(expr, path, replacement):
    """``expr`` with the subterm at ``path`` (field names) replaced."""
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    fields = dict(expr.__dict__)
    fields[head] = _rebuild(fields[head], rest, replacement)
    return type(expr)(**fields)


def _subterms(expr, path=()):
    yield path, expr
    for name in ("left", "right", "operand", "body", "cond", "then", "otherwise"):
        child = getattr(expr, name, None)
        if child is not None and not isinstance(child, (str, tuple, BBinOpKind)):
            yield from _subterms(child, path + (name,))


def axiom_perturbations(axiom_expr: Forall, rng: random.Random):
    """(kind, perturbed expression) for one ``forall`` background axiom.

    None of them equals the axiom, so the kernel must evaluate each one.
    A negated body, ``==``/``!=`` swapped, a real literal changed, or an
    antecedent (or one of its operands) dropped may make the axiom false;
    a consistent renaming of a bound variable keeps it true.
    """
    body = axiom_expr.body
    yield "negate-body", Forall(axiom_expr.type_vars, axiom_expr.bound, BUnOp(BUnOpKind.NOT, body))
    for path, sub in _subterms(axiom_expr):
        if isinstance(sub, BBinOp) and sub.op in _SWAP:
            swapped = BBinOp(_SWAP[sub.op], sub.left, sub.right)
            yield f"swap-{sub.op.name}", _rebuild(axiom_expr, path, swapped)
        if isinstance(sub, BRealLit):
            choices = [
                value for value in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-1))
                if value != sub.value
            ]
            yield "change-real", _rebuild(axiom_expr, path, BRealLit(rng.choice(choices)))
    if isinstance(body, BBinOp) and body.op is BBinOpKind.IMPLIES:
        yield "drop-antecedent", Forall(axiom_expr.type_vars, axiom_expr.bound, body.right)
        antecedent = body.left
        if isinstance(antecedent, BBinOp) and antecedent.op in (BBinOpKind.AND, BBinOpKind.OR):
            for kept in (antecedent.left, antecedent.right):
                weakened = BBinOp(BBinOpKind.IMPLIES, kept, body.right)
                yield f"drop-{antecedent.op.name}-operand", Forall(
                    axiom_expr.type_vars, axiom_expr.bound, weakened
                )
    names = [name for name, _ in axiom_expr.bound]
    old = names[rng.randrange(len(names))]
    new = next(f"{old}_{n}" for n in itertools.count() if f"{old}_{n}" not in names)
    bound = tuple((new if name == old else name, typ) for name, typ in axiom_expr.bound)
    yield "rename-bound", Forall(axiom_expr.type_vars, bound, subst_expr(body, {old: BVar(new)}))


def _mut_perturb_axiom(rng: random.Random, subject: MutationSubject) -> Optional[Mutation]:
    """Perturb every ``forall`` axiom, so that none is a schema instance:
    the kernel must evaluate all of them, true renamings included.  The
    translation's background theory carries the same perturbed axioms, as
    a bug in building it would, so a kernel that trusted it to say which
    axioms are schemas would be caught too."""
    result = subject.result
    axioms, edits = [], []
    for index, axiom in enumerate(result.boogie_program.axioms):
        if isinstance(axiom.expr, Forall):
            kind, perturbed = rng.choice(list(axiom_perturbations(axiom.expr, rng)))
            axiom = AxiomDecl(perturbed, axiom.comment)
            edits.append(f"#{index} {kind}")
        axioms.append(axiom)
    if not edits:
        return None
    return Mutation(
        mutator="boogie-perturb-axiom",
        artifact="boogie",
        result=replace(
            result,
            background=replace(result.background, axioms=tuple(axioms)),
            boogie_program=replace(result.boogie_program, axioms=tuple(axioms)),
        ),
        certificate_text=subject.certificate_text,
        detail="axioms perturbed: " + ", ".join(edits),
    )


# ---------------------------------------------------------------------------
# Hint mutators (simulated lying tactic / instrumentation)
# ---------------------------------------------------------------------------

_HINT_CHILD_FIELDS = {
    SeqHint: ("first", "second"),
    IfHint: ("then", "otherwise"),
    SepHint: ("left", "right"),
    ImpliesHint: ("body",),
    CondHint: ("then", "otherwise"),
    InhaleHint: ("assertion",),
    ExhaleHint: ("assertion",),
    AssertHint: ("assertion",),
    CallHint: ("exhale_pre", "inhale_post"),
}


def _walk_hint(hint, visit, path=()):
    """Preorder visit of a hint tree (including assertion-level hints)."""
    visit(hint, path)
    for hint_type, fields in _HINT_CHILD_FIELDS.items():
        if isinstance(hint, hint_type):
            for name in fields:
                _walk_hint(getattr(hint, name), visit, path + (name,))
            break


def _rewrite_at(hint, target_path, transform, path=()):
    """Rebuild a hint tree with the node at ``target_path`` transformed."""
    if path == target_path:
        return transform(hint)
    for hint_type, fields in _HINT_CHILD_FIELDS.items():
        if isinstance(hint, hint_type):
            updates = {
                name: _rewrite_at(getattr(hint, name), target_path, transform,
                                  path + (name,))
                for name in fields
            }
            return replace(hint, **updates)
    return hint


def _method_hint_sections(hint: MethodHint) -> List[Tuple[str, object]]:
    sections: List[Tuple[str, object]] = [
        ("wf.pre", hint.wellformedness.inhale_pre),
        ("wf.post", hint.wellformedness.inhale_post),
    ]
    if hint.body is not None:
        sections.append(("body.pre", hint.body_inhale_pre))
        sections.append(("body", hint.body))
        sections.append(("body.post", hint.body_exhale_post))
    return sections


def _replace_section(hint: MethodHint, section: str, new_value) -> MethodHint:
    if section == "wf.pre":
        return replace(
            hint, wellformedness=replace(hint.wellformedness, inhale_pre=new_value)
        )
    if section == "wf.post":
        return replace(
            hint, wellformedness=replace(hint.wellformedness, inhale_post=new_value)
        )
    if section == "body.pre":
        return replace(hint, body_inhale_pre=new_value)
    if section == "body":
        return replace(hint, body=new_value)
    if section == "body.post":
        return replace(hint, body_exhale_post=new_value)
    raise KeyError(section)


def _hint_mutation(
    rng: random.Random,
    subject: MutationSubject,
    name: str,
    predicate,
    transform,
    detail: str,
) -> Optional[Mutation]:
    """Transform one random hint node matching ``predicate`` and regenerate."""
    method_names = _shuffled(rng, sorted(subject.result.methods))
    for method_name in method_names:
        translated = subject.result.methods[method_name]
        candidates: List[Tuple[str, Tuple[str, ...]]] = []
        for section, section_hint in _method_hint_sections(translated.hint):
            _walk_hint(
                section_hint,
                lambda node, path, section=section: candidates.append((section, path))
                if predicate(node, path)
                else None,
            )
        if not candidates:
            continue
        section, path = candidates[rng.randrange(len(candidates))]
        old_section = dict(_method_hint_sections(translated.hint))[section]
        new_section = _rewrite_at(old_section, path, transform)
        if new_section == old_section:
            continue
        new_hint = _replace_section(translated.hint, section, new_section)
        new_methods = dict(subject.result.methods)
        new_methods[method_name] = replace(translated, hint=new_hint)
        lying_result = replace(subject.result, methods=new_methods)
        try:
            certificate = generate_program_certificate(lying_result)
        except ProofGenError:
            continue  # the tactic refused; not a kernel-facing artifact
        text = render_program_certificate(certificate)
        if normalize_certificate(
            parse_program_certificate(text)
        ) == normalize_certificate(subject.certificate):
            continue  # the lie does not surface in the certificate
        return Mutation(
            mutator=name,
            artifact="hints",
            result=subject.result,
            certificate_text=text,
            detail=f"{detail} in {method_name} ({section}:{'/'.join(path) or 'root'})",
        )
    return None


def _at_call_site(path: Tuple[str, ...]) -> bool:
    """True when the node is the pre-exhale child of a ``CallHint``.

    The ``with_wd`` flag is only *load-bearing* at call sites: at body
    statement positions the kernel ignores the declared variant entirely
    and re-derives it (INHALE-STMT-SIM / EXH-SIM pass ``with_wd=True``
    unconditionally), so only the call-site flag feeds the non-local
    hypothesis discipline of Sec. 4.2.
    """
    return bool(path) and path[-1] == "exhale_pre"


def _mut_hint_claim_wd_omitted(rng, subject) -> Optional[Mutation]:
    # Only applicable to subjects translated with wd_checks_at_calls=True:
    # the code then snapshots a wd mask at the call-site exhale, and the
    # lying flag claims it did not (to smuggle in the Q hypothesis).
    return _hint_mutation(
        rng, subject, "hints-claim-wd-omitted",
        lambda node, path: _at_call_site(path)
        and isinstance(node, ExhaleHint) and node.with_wd_checks,
        lambda node: replace(node, with_wd_checks=False, wd_mask_var=None),
        "claimed call-site wd checks omitted against code that emits them",
    )


def _mut_hint_claim_wd_present(rng, subject) -> Optional[Mutation]:
    # Dual lie: under the default (optimised) translation the call-site
    # exhale omits wd checks; claiming them present makes the kernel
    # demand a wd-mask snapshot command the code never emitted.
    def transform(node):
        record = next(iter(subject.result.methods.values())).record
        wd_mask = record.wd_mask_var or "wdm_lie"
        return replace(node, with_wd_checks=True, wd_mask_var=wd_mask)

    return _hint_mutation(
        rng, subject, "hints-claim-wd-present",
        lambda node, path: _at_call_site(path)
        and isinstance(node, ExhaleHint) and not node.with_wd_checks,
        transform,
        "claimed call-site wd checks present against code that omits them",
    )


def _mut_hint_reorder_seq(rng, subject) -> Optional[Mutation]:
    return _hint_mutation(
        rng, subject, "hints-reorder-seq",
        lambda node, path: isinstance(node, SeqHint) and node.first != node.second,
        lambda node: SeqHint(node.second, node.first),
        "sequential sub-proofs reordered",
    )


def _mut_hint_drop_subtree(rng, subject) -> Optional[Mutation]:
    return _hint_mutation(
        rng, subject, "hints-drop-subtree",
        lambda node, path: isinstance(node, SeqHint)
        and not isinstance(node.second, SkipHint),
        lambda node: SeqHint(node.first, SkipHint()),
        "statement sub-proof dropped (replaced by a skip claim)",
    )


def _mut_hint_lie_fastpath(rng, subject) -> Optional[Mutation]:
    return _hint_mutation(
        rng, subject, "hints-lie-fastpath",
        lambda node, path: isinstance(node, AccHint) and node.perm_temp_var is not None,
        lambda node: replace(node, perm_temp_var=None),
        "claimed the literal fast path against temp-based code",
    )


def _mut_hint_alias_aux(rng, subject) -> Optional[Mutation]:
    # Claim the reduction-state mask itself as the wd-mask snapshot: the
    # freshness side condition must reject the alias even when command
    # matching could be fooled.
    mask_vars = {
        name: translated.record.mask_var
        for name, translated in subject.result.methods.items()
    }
    some_mask = sorted(set(mask_vars.values()))[0] if mask_vars else "M"
    return _hint_mutation(
        rng, subject, "hints-alias-aux",
        lambda node, path: isinstance(node, ExhaleHint) and node.wd_mask_var is not None,
        lambda node: replace(node, wd_mask_var=some_mask),
        "auxiliary wd-mask aliased to the tracked mask variable",
    )


def _assertion_hint_has_acc(node: AssertionHint) -> bool:
    found: List[bool] = []
    _walk_hint(node, lambda n, path: found.append(True) if isinstance(n, AccHint) else None)
    return bool(found)


def _mut_hint_drop_havoc(rng, subject) -> Optional[Mutation]:
    return _hint_mutation(
        rng, subject, "hints-drop-havoc",
        lambda node, path: isinstance(node, ExhaleHint)
        and node.havoc_heap_var is not None
        and _assertion_hint_has_acc(node.assertion),
        lambda node: replace(node, havoc_heap_var=None),
        "claimed the exhale heap havoc was omitted although permission is held",
    )


# ---------------------------------------------------------------------------
# Certificate-text mutators (token- and rule-level .cert corruption)
# ---------------------------------------------------------------------------


def _cert_mutation(
    subject: MutationSubject, name: str, lines: List[str], detail: str
) -> Optional[Mutation]:
    text = "\n".join(lines) + "\n"
    if text == subject.certificate_text:
        return None
    try:
        mutated = parse_program_certificate(text)
    except Exception:
        mutated = None
    if mutated is not None and normalize_certificate(mutated) == normalize_certificate(
        subject.certificate
    ):
        return None  # textual change denotes the identical certificate
    return Mutation(
        mutator=name,
        artifact="cert",
        result=subject.result,
        certificate_text=text,
        detail=detail,
    )


def _cert_lines(subject: MutationSubject) -> List[str]:
    return subject.certificate_text.splitlines()


def _mut_cert_corrupt_header(rng, subject) -> Optional[Mutation]:
    lines = _cert_lines(subject)
    lines[0] = "CERTIFICATE-V0"
    return _cert_mutation(
        subject, "cert-corrupt-header", lines, "version header corrupted"
    )


def _mut_cert_delete_line(rng, subject) -> Optional[Mutation]:
    lines = _cert_lines(subject)
    candidates = [
        i for i, line in enumerate(lines)
        if line.strip() and line.strip() not in ("CERTIFICATE-V1", "end-certificate")
    ]
    for index in _shuffled(rng, candidates):
        mutation = _cert_mutation(
            subject, "cert-delete-line",
            lines[:index] + lines[index + 1:],
            f"line {index + 1} deleted ({lines[index].strip()[:40]!r})",
        )
        if mutation is not None:
            return mutation
    return None


def _mut_cert_swap_lines(rng, subject) -> Optional[Mutation]:
    lines = _cert_lines(subject)
    candidates = [
        i for i in range(len(lines) - 1)
        if lines[i].strip() and lines[i + 1].strip() and lines[i] != lines[i + 1]
    ]
    for index in _shuffled(rng, candidates):
        swapped = list(lines)
        swapped[index], swapped[index + 1] = swapped[index + 1], swapped[index]
        mutation = _cert_mutation(
            subject, "cert-swap-lines", swapped,
            f"lines {index + 1} and {index + 2} swapped",
        )
        if mutation is not None:
            return mutation
    return None


def _mut_cert_rename_rule(rng, subject) -> Optional[Mutation]:
    lines = _cert_lines(subject)
    rule_lines = [
        i for i, line in enumerate(lines)
        if line.strip().split() and line.strip().split()[0] in RULE_NAMES
    ]
    if not rule_lines:
        return None
    catalog = sorted(RULE_NAMES)
    for index in _shuffled(rng, rule_lines):
        stripped = lines[index].strip().split()
        current = stripped[0]
        replacement = catalog[(catalog.index(current) + 1) % len(catalog)]
        indent = lines[index][: len(lines[index]) - len(lines[index].lstrip())]
        mutated = list(lines)
        mutated[index] = indent + " ".join([replacement] + stripped[1:])
        mutation = _cert_mutation(
            subject, "cert-rename-rule", mutated,
            f"rule {current} renamed to {replacement} at line {index + 1}",
        )
        if mutation is not None:
            return mutation
    return None


def _mut_cert_corrupt_param(rng, subject) -> Optional[Mutation]:
    # ``with_wd`` keys are deliberately not corrupted here: the kernel
    # re-derives the translation variant at statement positions (the param
    # is advisory there — see docs/TRUSTED_BASE.md), so a token flip would
    # be semantically inert.  The load-bearing call-site flag lies are the
    # dedicated ``hints-claim-wd-*`` mutators.
    lines = _cert_lines(subject)
    flips = {"@true": "@false", "@false": "@true", "@none": "bogus"}
    candidates = [
        i for i, line in enumerate(lines) if "=" in line and line.startswith("  ")
    ]
    for index in _shuffled(rng, candidates):
        line = lines[index]
        indent = line[: len(line) - len(line.lstrip())]
        tokens = line.strip().split()
        param_slots = [
            j for j, tok in enumerate(tokens)
            if "=" in tok and not tok.startswith("with_wd=")
        ]
        if not param_slots:
            continue
        slot = param_slots[rng.randrange(len(param_slots))]
        key, _, value = tokens[slot].partition("=")
        if value in flips:
            new_value = flips[value]
        elif value.lstrip("-").isdigit():
            new_value = str(int(value) + 1)
        else:
            new_value = value + "_x"
        tokens[slot] = f"{key}={new_value}"
        mutated = list(lines)
        mutated[index] = indent + " ".join(tokens)
        mutation = _cert_mutation(
            subject, "cert-corrupt-param", mutated,
            f"parameter {key}={value} corrupted to {new_value} at line {index + 1}",
        )
        if mutation is not None:
            return mutation
    return None


def _mut_cert_corrupt_indent(rng, subject) -> Optional[Mutation]:
    lines = _cert_lines(subject)
    candidates = [i for i, line in enumerate(lines) if line.startswith("  ")]
    for index in _shuffled(rng, candidates):
        mutated = list(lines)
        mutated[index] = "  " + mutated[index]
        mutation = _cert_mutation(
            subject, "cert-corrupt-indent", mutated,
            f"proof line {index + 1} re-indented (reparenting attempt)",
        )
        if mutation is not None:
            return mutation
    return None


def _mut_cert_corrupt_record(rng, subject) -> Optional[Mutation]:
    # Only ``var`` lines are retargeted: the kernel's record check pins
    # every Viper variable to a *declared local* of the right type and
    # rejects duplicate targets, so both corruption shapes below are
    # guaranteed to be load-bearing.  ``heapvar``/``fieldconst`` lines are
    # only checked for *declaration*, so retargeting an entry the method
    # never touches would be semantically inert (and rightly accepted).
    lines = _cert_lines(subject)
    mask_value = "M"
    for line in lines:
        if line.strip().startswith("maskvar "):
            mask_value = line.strip().split()[1]
            break
    blocks = {}  # var-line index -> method-block ordinal (for sibling scoping)
    block = -1
    for i, line in enumerate(lines):
        if line.strip().startswith("method "):
            block += 1
        if line.strip().startswith("var "):
            blocks[i] = block
    candidates = sorted(blocks)
    for index in _shuffled(rng, candidates):
        tokens = lines[index].strip().split()
        siblings = [
            lines[j].strip().split()[-1]
            for j in candidates
            if j != index
            and blocks[j] == blocks[index]
            and lines[j].strip().split()[-1] != tokens[-1]
        ]
        if siblings and rng.random() < 0.5:
            # Alias two Viper variables to one Boogie local.
            tokens[-1] = siblings[rng.randrange(len(siblings))]
        else:
            # Retarget the variable to the tracked mask global.
            tokens[-1] = mask_value if tokens[-1] != mask_value else mask_value + "_x"
        mutated = list(lines)
        mutated[index] = " ".join(tokens)
        mutation = _cert_mutation(
            subject, "cert-corrupt-record", mutated,
            f"record line {index + 1} retargeted to {tokens[-1]!r}",
        )
        if mutation is not None:
            return mutation
    return None


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------

MUTATORS: Tuple[Mutator, ...] = (
    # -- translator bugs (Boogie program edits) ------------------------------
    Mutator(
        "boogie-swap-literal", "boogie",
        "expression faithfulness: the kernel recomputes every Viper-derived "
        "expression instead of trusting the emitted one",
        _mut_swap_literal,
    ),
    Mutator(
        "boogie-weaken-assert", "boogie",
        "check preservation: a failing Viper execution must keep a failing "
        "Boogie counterpart (asserts cannot become assumes)",
        _mut_weaken_assert,
    ),
    Mutator(
        "boogie-drop-command", "boogie",
        "obligation completeness: every schema command must be present at "
        "the cursor",
        _mut_drop_command,
    ),
    Mutator(
        "boogie-duplicate-command", "boogie",
        "cursor discipline: extra commands cannot hide inside or after a "
        "checked region",
        _mut_duplicate_command,
    ),
    Mutator(
        "boogie-swap-adjacent", "boogie",
        "schema ordering: state updates and checks must appear in the "
        "order the lemma schema fixes",
        _mut_swap_adjacent,
    ),
    Mutator(
        "boogie-retarget-assign", "boogie",
        "state-relation integrity: heap/mask updates must target the "
        "record-tracked globals",
        _mut_retarget_assign,
    ),
    Mutator(
        "boogie-truncate-body", "boogie",
        "obligation coverage: the certificate must account for the whole "
        "procedure body (no trailing or missing obligations)",
        _mut_truncate_body,
    ),
    # -- lying tactic / instrumentation (hint edits) -------------------------
    Mutator(
        "hints-claim-wd-omitted", "hints",
        "Q discipline (Sec. 4.2): wd omission is only sound under a "
        "non-local hypothesis",
        _mut_hint_claim_wd_omitted,
    ),
    Mutator(
        "hints-claim-wd-present", "hints",
        "variant honesty: the declared translation variant must match the "
        "emitted commands",
        _mut_hint_claim_wd_present,
    ),
    Mutator(
        "hints-reorder-seq", "hints",
        "structural lockstep: sub-proofs must align with the statement "
        "tree, not merely exist",
        _mut_hint_reorder_seq,
    ),
    Mutator(
        "hints-drop-subtree", "hints",
        "proof completeness: every sub-statement needs its own simulation "
        "proof",
        _mut_hint_drop_subtree,
    ),
    Mutator(
        "hints-lie-fastpath", "hints",
        "side-condition soundness: the literal fast path is only sound for "
        "positive literal amounts and matching commands",
        _mut_hint_lie_fastpath,
    ),
    Mutator(
        "hints-alias-aux", "hints",
        "auxiliary freshness: aux variables must not alias record-tracked "
        "state",
        _mut_hint_alias_aux,
    ),
    Mutator(
        "hints-drop-havoc", "hints",
        "havoc obligation (Sec. 3.4): omitting the exhale heap havoc is "
        "only sound for permission-free assertions",
        _mut_hint_drop_havoc,
    ),
    # -- .cert text corruption (cites docs/CERTIFICATE_FORMAT.md) ------------
    Mutator(
        "cert-corrupt-header", "cert",
        "format versioning: unknown versions must be rejected before any "
        "rule is interpreted",
        _mut_cert_corrupt_header,
        spec_section="§1 (header and versioning)",
    ),
    Mutator(
        "cert-delete-line", "cert",
        "record/proof completeness: a missing record or proof line cannot "
        "silently weaken the obligation",
        _mut_cert_delete_line,
        spec_section="§2–§4 (method blocks, record lines, proof blocks)",
    ),
    Mutator(
        "cert-swap-lines", "cert",
        "line-order significance: premise order is proof structure, not "
        "presentation",
        _mut_cert_swap_lines,
        spec_section="§4 (proof blocks and premise order)",
    ),
    Mutator(
        "cert-rename-rule", "cert",
        "rule-identity integrity: the applied rule is taken from the line, "
        "so a renamed rule must fail its schema",
        _mut_cert_rename_rule,
        spec_section="§6 (rule lines and the catalog)",
    ),
    Mutator(
        "cert-corrupt-param", "cert",
        "parameter integrity: rule parameters are side-condition inputs "
        "(variant flags, aux names), not comments",
        _mut_cert_corrupt_param,
        spec_section="§5 (parameter encoding)",
    ),
    Mutator(
        "cert-corrupt-indent", "cert",
        "tree-shape integrity: indentation *is* the premise structure",
        _mut_cert_corrupt_indent,
        spec_section="§4 (indentation as tree shape)",
    ),
    Mutator(
        "cert-corrupt-record", "cert",
        "state-relation integrity: the record must map to declared, "
        "correctly-typed, non-aliased Boogie variables",
        _mut_cert_corrupt_record,
        spec_section="§3 (translation-record lines)",
    ),
    # -- a background axiom that is no longer a schema instance ---------------
    Mutator(
        "boogie-perturb-axiom", "boogie",
        "schema recognition: only an axiom equal to a background schema "
        "skips evaluation; every other axiom is evaluated, and one false "
        "on the sampled carriers must be rejected",
        _mut_perturb_axiom,
    ),
)

MUTATORS_BY_NAME = {mutator.name: mutator for mutator in MUTATORS}


# ---------------------------------------------------------------------------
# Source-level mutation (the incrementality layer's adversary)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceMutation:
    """One semantically inert single-method edit of the Viper *source*.

    Unlike :class:`Mutation`, nothing here is corrupted: the edit preserves
    certifiability by construction (``assert true`` appended to the body,
    or ``&& true`` conjoined onto the postcondition).  What it perturbs is
    the **unit-cache key structure** (:mod:`repro.pipeline.units`): a
    ``body`` edit must invalidate exactly the edited unit, a ``spec`` edit
    the edited unit plus its transitive callers.  The fuzz driver re-runs
    the pipeline against a warm cache and fails the run when the rebuilt
    set disagrees with that prediction.
    """

    source: str
    method: str
    kind: str  # "body" | "spec"


def mutate_single_method(
    rng: random.Random, program: "ViperProgram"
) -> Optional[SourceMutation]:
    """Apply one inert edit to one method; ``None`` if there is no method."""
    if not program.methods:
        return None
    method = program.methods[rng.randrange(len(program.methods))]
    kind = "spec" if method.body is None or rng.random() < 0.5 else "body"
    if kind == "body":
        mutated = replace(
            method, body=ViperSeq(method.body, AssertStmt(TRUE_ASSERTION))
        )
    else:
        mutated = replace(
            method, post=ViperSepConj(method.post, TRUE_ASSERTION)
        )
    methods = tuple(
        mutated if decl.name == method.name else decl
        for decl in program.methods
    )
    return SourceMutation(
        source=pretty_program(replace(program, methods=methods)),
        method=method.name,
        kind=kind,
    )
