"""Every size refusal in the package names the allocation it bounds.

A function that raises SizeCapError must be listed in CAP_SITES with what
its check keeps from being built, and every listed function must still
raise it.  So a new refusal that guards nothing, a height compared with
state_cap where no array of that height is built, say, cannot land
without a stated reason.
"""

import ast

from test_imports import package_sources

# function -> the allocation its SizeCapError refuses before it is made
CAP_SITES = {
    "cf_builder.build_schedule":
        "the cut lists of all stages (ENUMERATION_CAP columns), and int64 level "
        "indices (MAX_HEIGHT)",
    "cli._cylinder_decay":
        "the decay rows, one per cylinder pair and lag (ENUMERATION_CAP)",
    "cocycle_engine.TowerModel.__init__":
        "the model's word arrays, one row per level (its cap)",
    "finite_algebra.FiniteAbelianGroup.iter_elements":
        "the list of the group's elements, or a walk over all of them "
        "(ENUMERATION_CAP)",
    "finite_algebra.FiniteAbelianGroup.coordinate_subgroup":
        "the list of the subgroup's elements (ENUMERATION_CAP)",
    "finite_algebra.ModuleAction.matrices":
        "theta's power stack, |K| rank^2 int64 entries, which bounds every "
        "orbit's |K| images too (ENUMERATION_CAP)",
    "finite_algebra._int64_sums":
        "int64 sums of residue products: the power stack's, the orbit and "
        "module images', rank times the largest order squared, and the "
        "character exponents', rank times the largest order times the "
        "exponent (2^63)",
    "koopman_lab.build_component":
        "the component's successor and phase arrays, one per level for an eta "
        "component and h kappa states for a chi one (state_cap)",
    "koopman_lab._runs":
        "the level-pair index arrays the pair counter lists (the tower's cap)",
    "koopman_lab._PairCounter.edge":
        "the words of a tower's top or bottom levels that span several of its "
        "columns, which the crossings pair (the tower's cap)",
    "koopman_lab._PairCounter.offsets":
        "the (lag, column, column) offsets of the lags of at least a column's "
        "height, two per lag and column (the tower's cap), and their int64 "
        "group keys, tables times 2 kappa^2 |A| times the column height (2^63)",
    "koopman_lab._PairCounter.pairs":
        "the int64 keys of the pair tables, tables times n_cyl^2 kappa^2 |A| "
        "(2^63)",
    "koopman_lab._PairCounter.weight_table":
        "a dense table of weights per (table, lag) that the counter asks of "
        "the tower below or pairs across a column boundary (the tower's cap)",
    "koopman_lab._probe_plan":
        "the dense table the probe's rows render, n_cyl^2 kappa for eta and "
        "(kappa n_cyl)^2 for chi, or the chi module images, the larger (state_cap)",
    "koopman_lab._difference_counts":
        "a stage's column pairs, or the difference table below it, the fewer "
        "(the tower's cap)",
    "module_factory.assemble_triple":
        "the element lists of K and D that the triple's checks walk "
        "(ENUMERATION_CAP)",
    "session.synth":
        "int64 level indices: a schedule of 63 stages is taller than MAX_HEIGHT, "
        "refused before its labels are drawn",
}


def raises_size_cap(node) -> bool:
    return any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
               and isinstance(n.exc.func, ast.Name) and n.exc.func.id == "SizeCapError"
               for n in ast.walk(node))


def cap_sites(modules: dict[str, str]) -> list[str]:
    """Qualified names of the functions and methods of the modules (name ->
    source) whose bodies raise SizeCapError."""
    sites = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef) and raises_size_cap(child):
                    sites.append(name)
                visit(child, name)

    for module, source in modules.items():
        visit(ast.parse(source), module)
    return sorted(sites)


def test_every_size_refusal_names_what_it_bounds():
    assert cap_sites(package_sources()) == sorted(CAP_SITES)


def test_guard_flags_an_unlisted_refusal():
    modules = package_sources()
    modules["koopman_lab"] += (
        "\n\ndef height_only(tower, cap):\n"
        "    if tower.height > cap:\n"
        "        raise SizeCapError(f'tower height {tower.height} exceeds cap {cap}')\n")
    assert [s for s in cap_sites(modules) if s not in CAP_SITES] == ["koopman_lab.height_only"]
