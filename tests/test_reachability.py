"""Every module-level function and class in vifit is reached by the program.

A name defined in ``src/vifit`` must be referred to at least once by code
outside its own definition: elsewhere in ``src/vifit``, in the benchmark's
``bench/*.py``, or in the acceptance gate ``tests/test_acceptance.py``.  A
reference is a name, an attribute or an imported name; in ``bench/*.py``
also a string equal to the name, since the benchmark wraps attributes by
name.  Text in docstrings and comments is no reference.  Code that only the
unit tests call is not part of what vifit does, so it fails here; a new
abstraction has to be used by the program to stay.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "vifit").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
READERS = [*SOURCES, *BENCH, ROOT / "tests" / "test_acceptance.py"]


def definitions() -> list:
    """(file, name) of every module-level function and class in ``src/vifit``."""
    return [
        (path, node.name)
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def referred(node, strings: bool):
    """The name that ``node`` refers to in code, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def references() -> set:
    """(file, top-level definition holding the reference or None, name) of
    every reference in ``READERS``."""
    found = set()
    for path in READERS:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = referred(node, strings=path in BENCH)
                if name is not None:
                    found.add((path, getattr(top, "name", None), name))
    return found


def test_every_definition_is_used_by_the_program():
    refs = references()
    unused = [
        f"{path.stem}.{name}"
        for path, name in definitions()
        if not any(ref == name and (where, owner) != (path, name) for where, owner, ref in refs)
    ]
    assert not unused, f"used nowhere outside their own definition: {', '.join(unused)}"


def exception_classes() -> list:
    """The classes defined in ``src/vifit`` that derive from BaseException,
    directly or through another class defined there."""
    bases = {
        node.name: [ast.unparse(base).split(".")[-1] for base in node.bases]
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }

    def derives(name) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return any(derives(base) for base in bases.get(name, ()))

    return sorted(name for name in bases if derives(name))


def test_one_failure_class_per_member():
    # Every numerical failure of a member is a MemberFailure, which is all
    # that fit_roster catches; ModeFamilyError rejects a roster before training.
    assert exception_classes() == ["MemberFailure", "ModeFamilyError"]


def sites(hit) -> set:
    """The functions of ``src/vifit``, as ``module.function``, holding an AST
    node for which ``hit`` is true."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, ast.FunctionDef):
                inner = f"{owner.split('.')[0]}.{child.name}"
            elif hit(child):
                found.add(owner)
            visit(child, inner)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path.stem)
    return found


def gufunc_aliases() -> list:
    """Every name under which ``src/vifit`` imports numpy's LAPACK gufunc
    module other than its own, ``_umath_linalg``."""
    return [
        alias.asname
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "_umath_linalg" in alias.name and alias.asname
    ]


def calls_ending(*suffixes):
    return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).endswith(suffixes)


def factorization_sites() -> set:
    """The functions that call ``np.linalg.cholesky`` or numpy's LAPACK
    gufuncs for it and for ``solve``, or hold an ``except`` clause naming
    ``LinAlgError``."""

    def hit(node) -> bool:
        if isinstance(node, ast.Call):
            return calls_ending("linalg.cholesky", "cholesky_lo", "_umath_linalg.solve")(node)
        return (
            isinstance(node, ast.ExceptHandler)
            and node.type is not None
            and "LinAlgError" in ast.unparse(node.type)
        )

    return sites(hit)


def callers(name: str) -> set:
    """The functions that call ``name``, bare or as an attribute."""
    return sites(
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name
    )


def test_factorizations_decide_their_failures_in_one_place_each():
    # A matrix that is not finite or not positive definite becomes a
    # MemberFailure where it is factorized, so no caller converts errors:
    # dense matrices go through autodiff.cholesky, the capacitance C of
    # every closed-form step through lowrank._capacitance_cholesky.  The
    # kernel's own site is its LU solve of that checked C.  The gufuncs are
    # matched by name, so the module holding them keeps its own name.
    assert not gufunc_aliases()
    assert factorization_sites() == {
        "autodiff.cholesky",
        "lowrank._capacitance_cholesky",
        "lowrank.lowrank_logpdf_and_vjp",
    }
    assert sites(calls_ending("_umath_linalg.solve")) == {"lowrank.lowrank_logpdf_and_vjp"}


def test_one_woodbury_kernel_factorizes_the_capacitance():
    # The capacitance C is factorized by the kernel that trains and nowhere
    # else (the factorization calls itself only slice by slice), and the
    # gate's Woodbury solve and log-det read that kernel.
    assert callers("_capacitance_cholesky") - {"lowrank._capacitance_cholesky"} == {
        "lowrank.lowrank_logpdf_and_vjp"
    }
    assert {"lowrank.woodbury_solve", "lowrank.woodbury_logdet"} <= callers(
        "lowrank_logpdf_and_vjp"
    )


def test_one_draw_realizes_q():
    # q's draws are realized by the function that trains, for training,
    # for fam.sample and for the Monte-Carlo audits' fam.sample_blocks, so
    # the gate's sampling and KL[q‖p] checks check the sampler that trains.
    assert callers("gaussian_draw_rows") == {
        "families.draws_logq_vjp",
        "families._mixture_logq_vjp",
    }
    assert {"families.sample", "families.sample_blocks"} <= callers("draws_logq_vjp")


def test_vifit_reads_nothing_it_writes():
    # The config file is vifit's one outside input: no report, trace or
    # family state it writes is parsed back.
    assert sites(calls_ending("json.load", "json.loads")) == {"cli._load_config"}


def reaching(name: str) -> set:
    """The functions that call ``name`` directly or through functions of
    ``src/vifit`` that call it."""
    found, todo = set(), [name]
    while todo:
        new = callers(todo.pop()) - found
        found |= new
        todo += [site.split(".")[-1] for site in new]
    return found


def test_every_target_is_read_through_one_method():
    # Training, the gate's gradient and the ELBO audit read every target
    # through log_joint_and_grad, and no caller asks which kind it has.
    assert not callers("loglik_rows") and not callers("log_density_and_grad")
    assert not {site for site in callers("hasattr") if site.split(".")[0] == "trainer"}
    assert {"trainer.train", "trainer.elbo_value_and_grad", "trainer.elbo_estimate"} <= reaching(
        "log_joint_and_grad"
    )
    assert ("families", "dense_moments") not in {(path.stem, name) for path, name in definitions()}


def test_the_trainer_decides_which_members_train_as_a_stack():
    # The CLI hands tr.train_roster a whole roster and names neither the
    # stacked trainer nor the sample count that its groups are keyed on.
    tree = ast.parse((ROOT / "src" / "vifit" / "cli.py").read_text())
    names = {referred(node, strings=False) for node in ast.walk(tree)}
    assert not names & {"train_stack", "_effective_sample_count"}
    assert "train_roster" in names


def test_one_training_loop():
    # A group of one and a stack of M train in one loop, through one
    # value-and-gradient function, and draw their noise a chunk at a time
    # (fam.noise_chunk, fam.fill_noise): draw_noise makes one batch.
    trainer = ast.parse((ROOT / "src" / "vifit" / "trainer.py").read_text())
    loops = [
        node
        for node in ast.walk(trainer)
        if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(config.steps)"
    ]
    assert len(loops) == 1
    names = {name for _, name in definitions()}
    assert "_value_grad" in names
    assert not names & {"_stack_value_grad", "_value_grad_norm", "_stack_noise"}
    families = ast.parse((ROOT / "src" / "vifit" / "families.py").read_text())
    (arguments,) = [
        node.args
        for node in families.body
        if isinstance(node, ast.FunctionDef) and node.name == "draw_noise"
    ]
    assert "steps" not in {arg.arg for arg in [*arguments.args, *arguments.kwonlyargs]}
