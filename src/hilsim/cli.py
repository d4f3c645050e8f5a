"""Command-line entry points."""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import click

from hilsim.bench import Bench, BenchConfig
from hilsim.dut import FaultConfig
from hilsim.harness import RunConfig, SUITE_NAMES, emit_report, run_suite
from hilsim.harness.runner import read_trace
from hilsim.memmap import (
    compute_layout,
    emit_csv,
    emit_docs,
    emit_struct_decl,
    map_version,
    parse_config_file,
)
from hilsim.pal import MapStore, RefDeviceClient
from hilsim.repl import DeviceShell
from hilsim.serve import serve_stdio, serve_tcp


@click.group()
def main() -> None:
    """Register-map tooling, device simulators, and the test harness."""


def _load_faults(path: str | None) -> FaultConfig | None:
    if path is None:
        return None
    return FaultConfig.from_json(Path(path).read_text("utf-8"))


def _parse_listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", int(port)


# -- generate ------------------------------------------------------------


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def generate(config: str, out_dir: str) -> None:
    """Generate struct, CSV map, docs, and version files from a map config."""
    spec = parse_config_file(config)
    layout = compute_layout(spec)
    version, map_hash = map_version(layout)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {
        f"{spec.name}_map.h.txt": emit_struct_decl(layout),
        f"{spec.name}_map.csv": emit_csv(layout),
        f"{spec.name}_map.md": emit_docs(layout),
        f"{spec.name}_version.txt": f"{version} {map_hash}\n",
    }
    for filename, text in written.items():
        (out / filename).write_text(text, "utf-8")
        click.echo(f"wrote {out / filename}")
    click.echo(f"{spec.name} v{version} ({map_hash}): {layout.total_size} bytes, {len(layout.entries)} parameters")


# -- servers -------------------------------------------------------------


def _build_bench(seed: int, faults: str | None, ppm: float) -> Bench:
    return Bench(BenchConfig(seed=seed, faults=_load_faults(faults), dut_clock_ppm_error=ppm))


@main.command()
@click.option("--listen", default=None, help="host:port to serve on")
@click.option("--stdio", is_flag=True, help="serve on stdin/stdout instead of TCP")
@click.option("--dut-listen", default=None, help="also expose the companion simulated DUT on host:port")
@click.option("--seed", default=0, show_default=True)
def serve(listen: str | None, stdio: bool, dut_listen: str | None, seed: int) -> None:
    """Serve a simulated reference device speaking the line protocol."""
    if stdio == (listen is not None):
        raise click.UsageError("pass exactly one of --listen or --stdio")
    bench = _build_bench(seed, None, 0.0)
    if dut_listen is not None:
        dut_server = serve_tcp(bench.dut, *_parse_listen(dut_listen))
        dut_server.serve_background()
        click.echo(f"DUT on {dut_server.endpoint}", err=True)
    if stdio:
        serve_stdio(bench.refdev)
        return
    server = serve_tcp(bench.refdev, *_parse_listen(listen))
    click.echo(f"reference device on {server.endpoint}", err=True)
    server.serve_forever()


@main.group()
def dut() -> None:
    """Simulated device-under-test commands."""


@dut.command(name="serve")
@click.option("--listen", default=None, help="host:port to serve on")
@click.option("--stdio", is_flag=True, help="serve on stdin/stdout instead of TCP")
@click.option("--faults", default=None, type=click.Path(exists=True, dir_okay=False),
              help="JSON file enabling seeded firmware faults")
@click.option("--ppm", default=0.0, show_default=True, help="DUT clock error in PPM")
@click.option("--seed", default=0, show_default=True)
def dut_serve(listen: str | None, stdio: bool, faults: str | None, ppm: float, seed: int) -> None:
    """Serve a simulated DUT (with its own private reference bench)."""
    if stdio == (listen is not None):
        raise click.UsageError("pass exactly one of --listen or --stdio")
    bench = _build_bench(seed, faults, ppm)
    if stdio:
        serve_stdio(bench.dut)
        return
    server = serve_tcp(bench.dut, *_parse_listen(listen))
    click.echo(f"DUT on {server.endpoint}", err=True)
    server.serve_forever()


# -- shell ---------------------------------------------------------------


def _client(endpoint: str, maps: str) -> RefDeviceClient:
    client = RefDeviceClient(endpoint, MapStore(maps))
    result = client.connect()
    if not result.ok:
        raise click.ClickException(result.error)
    return client


@main.command()
@click.option("--endpoint", required=True, help="reference device host:port")
@click.option("--maps", required=True, type=click.Path(exists=True, file_okay=False),
              help="directory of installed CSV register maps")
def shell(endpoint: str, maps: str) -> None:
    """Interactive name-based shell against a reference device."""
    client = _client(endpoint, maps)
    click.echo(f"connected, map version {client.map.version}")
    DeviceShell(client).cmdloop()


# -- run-suite -----------------------------------------------------------


@main.command(name="run-suite")
@click.option("--suite", required=True, help=f"one of {', '.join(SUITE_NAMES)}, or a manifest path")
@click.option("--dut", "dut_endpoint", default="local", show_default=True, help="DUT endpoint or 'local'")
@click.option("--ref", "ref_endpoint", default="local", show_default=True, help="reference endpoint or 'local'")
@click.option("--maps", default=None, type=click.Path(file_okay=False), help="map directory (remote endpoints)")
@click.option("--report", "report_path", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", default="table", type=click.Choice(["json", "table"]), show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--faults", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--ppm", default=0.0, show_default=True, help="DUT clock error in PPM (local bench only)")
def run_suite_cmd(suite, dut_endpoint, ref_endpoint, maps, report_path, fmt, seed, faults, ppm) -> None:
    """Run a test suite and emit a verdict report. Exits 0/1/2."""
    config = RunConfig(seed=seed, faults=_load_faults(faults), dut_clock_ppm_error=ppm)
    report = run_suite(suite, dut_endpoint, ref_endpoint, maps, config)
    text = emit_report(report, fmt)
    if report_path:
        Path(report_path).write_text(text + "\n", "utf-8")
        click.echo(f"report written to {report_path}", err=True)
    else:
        click.echo(text)
    sys.exit(report.exit_code())


# -- dump-trace ----------------------------------------------------------


@main.command(name="dump-trace")
@click.option("--endpoint", required=True, help="reference device host:port")
@click.option("--maps", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", default="-", show_default=True, help="output CSV path, '-' for stdout")
def dump_trace(endpoint: str, maps: str, out: str) -> None:
    """Dump the capture trace buffer as CSV."""
    events = read_trace(_client(endpoint, maps))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "pin", "level", "tick_ns"])
    writer.writerows((i, e.pin, e.level, e.timestamp_ns) for i, e in enumerate(events))
    if out == "-":
        click.echo(buf.getvalue(), nl=False)
    else:
        Path(out).write_text(buf.getvalue(), "utf-8")
        click.echo(f"{len(events)} events written to {out}", err=True)


if __name__ == "__main__":
    main()
