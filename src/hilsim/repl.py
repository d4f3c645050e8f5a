"""Interactive shell for poking a reference device by parameter name."""

from __future__ import annotations

import cmd
import json

from hilsim.pal import RefDeviceClient, TransportError


class DeviceShell(cmd.Cmd):
    intro = 'Device shell. Type "help" or "?" for commands, Ctrl-D to exit.'
    prompt = "(dev) "

    def __init__(self, client: RefDeviceClient, **kwargs):
        super().__init__(**kwargs)
        self.client = client

    # -- helpers ---------------------------------------------------------

    def _names(self, prefix: str) -> list[str]:
        if self.client.map is None:
            return []
        return [n for n in sorted(self.client.map.by_name) if n.startswith(prefix)]

    def _show(self, result) -> None:
        if result.ok:
            self.stdout.write(f"{result.data}\n")
        else:
            self.stdout.write(f"error: {result.error}\n")

    def onecmd(self, line: str) -> bool:
        """Run one command; a dropped device connection or a malformed number is reported, not raised."""
        try:
            return super().onecmd(line)
        except (TransportError, ValueError) as exc:
            self.stdout.write(f"error: {exc}\n")
            return False

    # -- commands --------------------------------------------------------

    def do_connect(self, arg: str) -> None:
        """connect -- read the device version and bind the matching map."""
        result = self.client.connect()
        if result.ok:
            self.stdout.write(f"connected, map version {result.data}\n")
        else:
            self.stdout.write(f"error: {result.error}\n")

    def do_read(self, arg: str) -> None:
        """read <name> [index] [count] -- read a parameter by name."""
        parts = arg.split()
        if not parts:
            self.stdout.write("usage: read <name> [index] [count]\n")
            return
        index = int(parts[1]) if len(parts) > 1 else 0
        count = int(parts[2]) if len(parts) > 2 else None
        self._show(self.client.read_reg(parts[0], index, count))

    def do_write(self, arg: str) -> None:
        """write <name> <value> [index] -- stage a write (commit with execute)."""
        parts = arg.split()
        if len(parts) < 2:
            self.stdout.write("usage: write <name> <value> [index]\n")
            return
        index = int(parts[2]) if len(parts) > 2 else 0
        self._show(self.client.write_reg(parts[0], int(parts[1], 0), index))

    def do_execute(self, arg: str) -> None:
        """execute -- commit staged writes and run init triggers."""
        self._show(self.client.execute())

    def do_write_execute(self, arg: str) -> None:
        """write_execute <name> <value> -- write, flag the module init, commit."""
        parts = arg.split()
        if len(parts) != 2:
            self.stdout.write("usage: write_execute <name> <value>\n")
            return
        result = self.client.write_and_execute(parts[0], int(parts[1], 0))
        if result.ok:
            self.stdout.write(f"sent {result.cmd}\n")
        else:
            self.stdout.write(f"error: {result.error}\n")

    def do_raw(self, arg: str) -> None:
        """raw <line> -- send a protocol line verbatim, print the JSON reply."""
        if not arg.strip():
            self.stdout.write("usage: raw <line>\n")
            return
        self.stdout.write(json.dumps(self.client.raw(arg)) + "\n")

    def do_names(self, arg: str) -> None:
        """names [prefix] -- list parameter names, optionally by prefix."""
        for name in self._names(arg.strip()):
            self.stdout.write(name + "\n")

    def do_describe(self, arg: str) -> None:
        """describe <name> -- show offset, type, and description for a parameter."""
        name = arg.strip()
        if self.client.map is None:
            self.stdout.write("not connected\n")
            return
        try:
            entry = self.client.map.lookup(name)
        except KeyError as exc:
            self.stdout.write(f"error: {exc}\n")
            return
        self.stdout.write(
            f"{entry.name}: offset {entry.offset}, size {entry.size}, "
            f"type {entry.type}, access {entry.access}\n"
        )
        if entry.description:
            self.stdout.write(f"  {entry.description}\n")

    def do_EOF(self, arg: str) -> bool:
        self.stdout.write("\n")
        return True

    def do_exit(self, arg: str) -> bool:
        """exit -- leave the shell."""
        return True

    # tab completion on parameter names
    def complete_read(self, text, line, begidx, endidx):
        return self._names(text)

    complete_write = complete_read
    complete_write_execute = complete_read
    complete_describe = complete_read
    complete_names = complete_read
