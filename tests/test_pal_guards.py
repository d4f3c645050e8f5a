"""Client-side guards of the PAL: a rejected access never reaches the wire."""

from hilsim.pal import ERROR, RefDeviceClient
from hilsim.reference import reference_layout

from conftest import Tap, csv_map


def connected_client(bench):
    wire = Tap(bench.refdev)
    client = RefDeviceClient(wire, csv_map())
    assert client.connect().ok
    wire.lines.clear()
    return client, wire


def test_write_reg_rejects_an_index_past_a_scalar(bench):
    client, wire = connected_client(bench)
    result = client.write_reg("i2c.slave_addr_1", 7, index=3)
    assert result.result == ERROR
    assert "index 3" in result.error
    assert wire.lines == []


def test_write_reg_rejects_a_list_running_off_an_array(bench):
    client, wire = connected_client(bench)
    size = reference_layout().lookup("user_reg.user_reg").array_len
    assert client.write_reg("user_reg.user_reg", [1, 2], index=size - 1).result == ERROR
    assert client.write_reg("user_reg.user_reg", 1, index=-1).result == ERROR
    assert wire.lines == []
    assert client.write_reg("user_reg.user_reg", [1, 2], index=size - 2).ok
    assert len(wire.lines) == 1
