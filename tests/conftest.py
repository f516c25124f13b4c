"""Shared pytest plumbing: the acceptance suite's per-criterion summary."""

acceptance_lines = []


def record_criterion(line: str) -> None:
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)


def loop_nest_trace(layer):
    """Every read and write of a layer, from the literal six-loop nest.

    An independent reference for the oracle tests.  ``reads`` holds
    ``(block, input address)`` pairs in execution order; ``writes`` holds one
    ``(block, output word)`` pair per block, and block ``k`` writes word ``k``.
    """
    x_out = (2 * layer.p_x + layer.x_in - layer.k_x) // layer.s_x + 1
    y_out = (2 * layer.p_y + layer.y_in - layer.k_y) // layer.s_y + 1
    cpg_in = layer.c_in // layer.groups
    cpg_out = layer.c_out // layer.groups
    reads, writes = [], []
    k = 0
    for oy in range(y_out):
        for ox in range(x_out):
            for co in range(layer.c_out):
                c_base = co // cpg_out * cpg_in
                for ky in range(layer.k_y):
                    y = oy * layer.s_y - layer.p_y + ky
                    if not 0 <= y < layer.y_in:
                        continue
                    for kx in range(layer.k_x):
                        x = ox * layer.s_x - layer.p_x + kx
                        if not 0 <= x < layer.x_in:
                            continue
                        addr = (y * layer.x_in + x) * layer.c_in + c_base
                        reads.extend((k, addr + c) for c in range(cpg_in))
                writes.append((k, k))
                k += 1
    return tuple(reads), tuple(writes)
