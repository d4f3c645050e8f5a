"""Command-line entry points."""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

import click

# only what generate and the servers need: shell, run-suite and dump-trace import the
# harness, the PAL and the REPL themselves, so a served device never loads them
from hilsim.bench import Bench, BenchConfig
from hilsim.dut import FaultConfig
from hilsim.memmap import (
    compute_layout,
    emit_csv,
    emit_docs,
    emit_struct_decl,
    parse_config_file,
)
from hilsim.serve import LineServer, serve_stdio


@click.group()
def main() -> None:
    """Register-map tooling, device simulators, and the test harness."""


class BadInput(click.ClickException):
    """Input a command cannot use: exit 2, as for a usage error, since 1 means failed tests."""

    exit_code = 2


def _load_faults(path: str | None) -> FaultConfig | None:
    if path is None:
        return None
    try:
        return FaultConfig.from_json(Path(path).read_text("utf-8"))
    except ValueError as exc:
        raise BadInput(f"{path}: {exc}") from None


def _parse_listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not port.isdigit() or int(port) > 0xFFFF:
        raise BadInput(f"bad address {value!r}, expected host:port")
    return host or "127.0.0.1", int(port)


# -- generate ------------------------------------------------------------


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def generate(config: str, out_dir: str) -> None:
    """Generate struct, CSV map, docs, and version files from a map config."""
    spec = parse_config_file(config)
    layout = compute_layout(spec)
    version, map_hash = layout.version, layout.map_hash

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


def _serve_address(listen: str | None, stdio: bool) -> tuple[str, int] | None:
    """The host and port ``--listen`` names, or None for ``--stdio``."""
    if stdio == (listen is not None):
        raise click.UsageError("pass exactly one of --listen or --stdio")
    return None if stdio else _parse_listen(listen)


def _listen(device, address: tuple[str, int]) -> LineServer:
    try:
        return LineServer(device, *address)
    except OSError as exc:
        raise BadInput(f"cannot listen on {address[0]}:{address[1]}: {exc.strerror or exc}") from None


def _serve(device, name: str, address: tuple[str, int] | None) -> None:
    """Serve ``device`` on stdin/stdout if ``address`` is None, else on TCP, until the process ends."""
    if address is None:
        serve_stdio(device)
        return
    server = _listen(device, address)
    click.echo(f"{name} on {server.endpoint}", err=True)
    server.serve_forever()


@main.command()
@click.option("--listen", default=None, help="host:port to serve on")
@click.option("--stdio", is_flag=True, help="serve on stdin/stdout instead of TCP")
@click.option("--dut-listen", default=None, help="also expose the companion simulated DUT on host:port")
@click.option("--seed", default=0, show_default=True)
def serve(listen: str | None, stdio: bool, dut_listen: str | None, seed: int) -> None:
    """Serve a simulated reference device speaking the line protocol."""
    address = _serve_address(listen, stdio)
    dut_address = None if dut_listen is None else _parse_listen(dut_listen)
    bench = _build_bench(seed, None, 0.0)
    if dut_address is not None:
        dut_server = _listen(bench.dut, dut_address)
        dut_server.serve_background()
        click.echo(f"DUT on {dut_server.endpoint}", err=True)
    _serve(bench.refdev, "reference device", address)


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
    address = _serve_address(listen, stdio)
    _serve(_build_bench(seed, faults, ppm).dut, "DUT", address)


# -- shell ---------------------------------------------------------------


def _client(endpoint: str, maps: str):
    """A connected ``RefDeviceClient``, whose transport closes when the command ends, or a one-line error."""
    from hilsim.pal import MapStore, RefDeviceClient

    try:
        client = RefDeviceClient(endpoint, MapStore(maps))
        click.get_current_context().call_on_close(client.transport.close)
        result = client.connect()
    except ValueError as exc:  # an endpoint that is not host:port, or a version file or map that does not parse
        raise BadInput(str(exc)) from None
    if not result.ok:
        raise click.ClickException(result.error)
    return client


@main.command()
@click.option("--endpoint", required=True, help="reference device host:port")
@click.option("--maps", required=True, type=click.Path(exists=True, file_okay=False),
              help="directory of installed CSV register maps")
def shell(endpoint: str, maps: str) -> None:
    """Interactive name-based shell against a reference device."""
    from hilsim.repl import DeviceShell

    client = _client(endpoint, maps)
    click.echo(f"connected, map version {client.map.version}")
    DeviceShell(client).cmdloop()


# -- run-suite -----------------------------------------------------------


@main.command(name="run-suite")
# the names of harness.SUITE_NAMES, spelled out: importing the harness here would load it for every command
@click.option("--suite", required=True, help="one of infrastructure, i2c, spi, uart, gpio_timer, or a manifest path")
@click.option("--dut", "dut_endpoint", default="local", show_default=True, help="DUT endpoint or 'local'")
@click.option("--ref", "ref_endpoint", default="local", show_default=True, help="reference endpoint or 'local'")
@click.option("--maps", default=None, type=click.Path(file_okay=False), help="map directory (remote endpoints)")
@click.option("--report", "report_path", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", default="table", type=click.Choice(["json", "table"]), show_default=True)
@click.option("--seed", default=0, show_default=True, help="bench seed (local bench only)")
@click.option("--faults", default=None, type=click.Path(exists=True, dir_okay=False),
              help="JSON file enabling seeded firmware faults (local bench only)")
@click.option("--ppm", default=0.0, show_default=True, help="DUT clock error in PPM (local bench only)")
def run_suite_cmd(suite, dut_endpoint, ref_endpoint, maps, report_path, fmt, seed, faults, ppm) -> None:
    """Run a test suite and emit a verdict report. Exits 0/1/2."""
    from hilsim.harness import RunConfig, emit_report, run_suite

    config = RunConfig(seed=seed, faults=_load_faults(faults), dut_clock_ppm_error=ppm)
    try:
        report = run_suite(suite, dut_endpoint, ref_endpoint, maps, config)
    except ValueError as exc:
        raise BadInput(str(exc)) from None
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
    from hilsim.harness.runner import StepFailure, read_trace
    from hilsim.pal import TransportError

    client = _client(endpoint, maps)
    try:
        events = read_trace(client)
    except (StepFailure, TransportError) as exc:  # a refused or unreadable read, or the device lost
        raise click.ClickException(str(exc)) from None
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
