import ast
from pathlib import Path

import gridcast

MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(gridcast.__file__).parent.glob("*.py"))}


def _referenced(tree) -> set:
    """Every name a module reads, as a bare name or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from gridcast import *", namespace)
    assert set(gridcast.__all__) <= set(namespace)


def test_every_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        used = _referenced(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}: {alias.asname or alias.name.split('.')[0]}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_every_private_function_is_referenced():
    referenced = set().union(*(_referenced(tree) for tree in MODULES.values()))
    unreferenced = [f"{module}.{node.name}" for module, tree in MODULES.items()
                    for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and node.name not in referenced]
    assert unreferenced == []


def test_no_module_builds_unchecked_strided_views():
    # as_strided builds a view without a bounds check, so a wrong stride reads
    # out of bounds silently; strided views go through the ndarray constructor
    # (grid._strided_view), which raises instead
    banned = {"stride_tricks", "as_strided"}
    found = []
    for module, tree in MODULES.items():
        names = _referenced(tree) | {alias.name for node in ast.walk(tree)
                                     if isinstance(node, (ast.Import, ast.ImportFrom))
                                     for alias in node.names}
        modules = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module}
        found += [f"{module}: {name}" for name in sorted(names | modules)
                  if banned & set(name.split("."))]
    assert found == []


def test_only_grid_turns_cells_into_metres():
    # the cell size is read where cells become metres and back (grid's
    # world_to_cell and cell_to_world) and where the GridSpec is built (config)
    readers = [module for module, tree in MODULES.items()
               if module not in {"grid", "config"}
               and any(isinstance(node, ast.Attribute) and node.attr == "resolution"
                       for node in ast.walk(tree))]
    assert readers == []


def test_no_module_calls_json_dump():
    # json.dump writes the encoder's output to the file chunk by chunk, through
    # the pure-Python encoder; json.dumps builds the same text in one call (with
    # the C encoder when there is no indent), written at once
    callers = [module for module, tree in MODULES.items()
               if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "dump"
                      and getattr(node.func.value, "id", None) == "json"
                      for node in ast.walk(tree))]
    assert callers == []


def test_each_rule_lives_in_one_module():
    # path repair (the 8-connected line between two cells) and the flat
    # offsets of the nine moves in a padded map live in grid, and the forecast
    # file format (each mode's "points" and "prob") in rollout
    names = {module: _referenced(tree) | {alias.name for node in ast.walk(tree)
                                          if isinstance(node, ast.ImportFrom)
                                          for alias in node.names}
             for module, tree in MODULES.items()}
    strings = {module: {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
               for module, tree in MODULES.items()}
    homes = [(names, "eight_connected_line", "grid"), (names, "successor_offsets", "grid"),
             (strings, "points", "rollout"), (strings, "prob", "rollout")]
    strays = [f"{module}: {rule}" for found, rule, home in homes
              for module in MODULES if module != home and rule in found[module]]
    assert strays == []


def test_scene_kinds_are_told_apart_in_one_function():
    # each scene kind is stated in one branch of one function, which gives its
    # route, speed profile, third agent and side lanes; a kind name compared
    # anywhere else is a second place where the kind is defined
    from gridcast.scene import SCENE_KINDS

    def kind_names(node):
        return {n.value for n in ast.walk(node)
                if isinstance(n, ast.Constant) and n.value in SCENE_KINDS}

    homes = {top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
             for top in MODULES["scene"].body for node in ast.walk(top)
             if isinstance(node, ast.Compare)
             and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
             and kind_names(node)}
    assert len(homes) == 1, sorted(homes)


def _owners(tree, name) -> set:
    """The innermost function around each reference to ``name`` (as a bare
    name or an attribute), or "<module>" for one outside every function."""
    owners = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                owners.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return owners


def test_only_the_two_passes_and_the_on_grid_policy_take_box_sums():
    # each step of the backward and forward pass is one box sum, and the
    # on-grid policy takes one over the whole grid; a box sum anywhere else
    # would be a second copy of the planner's stepping loop
    users = sorted(f"{module}.{owner}" for module, tree in MODULES.items()
                   for owner in _owners(tree, "_box_sum"))
    assert users == ["irl.expected_visitation", "irl.on_grid", "irl.soft_value_iteration"]


def test_only_the_loss_plans_a_reward():
    # train_irl returns the plan of its last loss evaluation with the reward
    # it fitted, so no module plans a fitted reward a second time
    users = sorted(f"{module}.{owner}" for module, tree in MODULES.items()
                   for owner in _owners(tree, "soft_value_iteration"))
    assert users == ["irl.irl_loss_and_grad"]
