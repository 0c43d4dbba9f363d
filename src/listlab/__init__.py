"""Simulators and cost accounting for the list accessing problem.

Classical algorithms (static, mtf, transpose, fc) run under the full,
partial, pd:<d> and centralized cost models; the buffered look-ahead
engine (amr) keeps the list fixed and pays access, matching and
replacement costs instead.

The package itself exports nothing: import each name from the module
that defines it (amr, classic, cli, core, costs, workloads).
"""
