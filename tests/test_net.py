"""Network/path data model: loading, validation, and incidence structure."""

import ast
import io
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import queuenet
from queuenet import fixtures
from queuenet.net import (
    Link,
    Network,
    NetworkError,
    Node,
    ODPair,
    Path,
    PathError,
    PathSet,
    _FreeFlowGraph,
    enumerate_paths,
    load_demands,
    load_network,
    load_path_set,
    write_path_set,
)
from queuenet.solver import SolverOptions, _group_levels, solve


#: the six-node scenario's tables, in the order they load
TABLES = ("nodes.csv", "links.csv", "demands.csv", "paths.csv")


@pytest.fixture
def tables(scenario_dir):
    """The six-node scenario's four tables as text, by file name."""
    return {t: (scenario_dir / t).read_text() for t in TABLES}


def _load_tables(texts):
    """Network and path set from the four tables' texts."""
    network = load_network(io.StringIO(texts["nodes.csv"]), io.StringIO(texts["links.csv"]))
    network = load_demands(io.StringIO(texts["demands.csv"]), network)
    return load_path_set(io.StringIO(texts["paths.csv"]), network)


def _accepted(record, id_, *fields):
    """Whether `record` takes `id_` as its id."""
    try:
        record(id_, *fields)
    except NetworkError:
        return False
    return True


def _net(nodes, links, ods=()):
    return Network(
        tuple(Node(n) for n in nodes),
        tuple(links),
        tuple(ods),
    )


class TestDataModel:
    def test_six_node_attributes(self):
        net = fixtures.six_node_network()
        assert len(net.nodes) == 6
        assert len(net.links) == 7
        assert len(net.od_pairs) == 2
        links = {l.id: l for l in net.links}
        l4 = links["4"]
        assert l4.tail == "5" and l4.head == "6"
        assert l4.capacity == 2400.0
        assert l4.free_flow_time == pytest.approx(0.167, abs=1e-9)
        assert links["1"].capacity == 1800.0
        assert links["6"].capacity == 1500.0
        assert links["7"].free_flow_time == pytest.approx(0.133)
        assert {(od.origin, od.destination, od.demand) for od in net.od_pairs} == {
            ("1", "3", 3000.0),
            ("2", "4", 3000.0),
        }

    def test_link_validation(self):
        with pytest.raises(NetworkError, match="free_flow_time"):
            Link("a", "u", "v", free_flow_time=0.0, capacity=100.0)
        with pytest.raises(NetworkError, match="capacity"):
            Link("a", "u", "v", free_flow_time=0.1, capacity=-5.0)
        # a zero speed divided the implied time by zero
        with pytest.raises(NetworkError, match="free_speed"):
            Link("a", "u", "v", 0.1, 100.0, length=1.0, free_speed=0.0)

    @pytest.mark.parametrize(
        "override, what",
        [
            (("gama", 0.9), "unexpected keyword argument 'gama'"),
            (("gamma", -1.0), "gamma must be >= 0"),
            (("m", "x"), ""),
        ],
        ids=["misspelt-name", "negative-gamma", "no-number"],
    )
    def test_link_checks_its_overrides(self, override, what):
        # a misspelt name was accepted, and the solve failed on a KeyError
        with pytest.raises(NetworkError, match=f"link a: .*{what}"):
            Link("a", "u", "v", 0.1, 100.0, overrides=(override,))
        Link("a", "u", "v", 0.1, 100.0, overrides=(("gamma", 0.9), ("m", 2.0)))

    @pytest.mark.parametrize(
        "record, id_",
        [(Node, "#u"), (Link, "#a"), (Link, "a;b"), (Node, " u"), (Link, "a\n"), (Node, "")],
        ids=["node-hash", "link-hash", "link-semicolon", "node-padded", "link-line-break"]
        + ["empty"],
    )
    def test_id_that_would_not_read_back_refused(self, record, id_):
        # a row led by "#" read back as a comment, a link "a;b" in a path
        # table as links a and b, a padded id without its blanks
        kind = record.__name__.lower()
        with pytest.raises(NetworkError, match=re.escape(f"{kind} {id_!r}: an id must")):
            record(id_, *(("u", "v", 0.1, 100.0) if record is Link else ()))

    def test_time_speed_consistency(self):
        # 10 km at 50 km/h is 0.2 h; a declared 0.5 h contradicts it
        with pytest.raises(NetworkError, match="inconsistent"):
            Link("a", "u", "v", 0.5, 1000.0, length=10.0, free_speed=50.0)
        Link("a", "u", "v", 0.2, 1000.0, length=10.0, free_speed=50.0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(NetworkError, match="duplicate node"):
            _net(["u", "u"], [])
        link = Link("a", "u", "v", 0.1, 100.0)
        with pytest.raises(NetworkError, match="duplicate link"):
            _net(["u", "v"], [link, link])

    def test_undeclared_node_rejected(self):
        with pytest.raises(NetworkError, match="undeclared"):
            _net(["u"], [Link("a", "u", "w", 0.1, 100.0)])

    def test_od_validation(self):
        with pytest.raises(NetworkError, match="demand"):
            ODPair("u", "v", -1.0)
        with pytest.raises(NetworkError, match="origin == destination"):
            ODPair("u", "u", 10.0)


class TestLoading:
    def test_load_network_csv(self):
        nodes = io.StringIO("node_id,x_coord,y_coord\nu,0,0\nv,1,0\n")
        links = io.StringIO(
            "link_id,from_node,to_node,capacity,free_flow_time\na,u,v,1800,0.25\n"
        )
        net = load_network(nodes, links)
        (a,) = net.links
        assert a.free_flow_time == 0.25

    def test_load_network_keeps_zero_coordinates(self):
        # a zero coordinate is kept; an empty or missing cell gives none
        nodes = io.StringIO("node_id,x_coord,y_coord\na,0,0\nb,,\nc,0\n")
        links = io.StringIO("link_id,from_node,to_node,capacity,free_flow_time\nl,a,b,1800,0.25\n")
        net = load_network(nodes, links)
        assert [(n.x, n.y) for n in net.nodes] == [(0.0, 0.0), (None, None), (0.0, None)]

    def test_load_network_length_speed(self):
        nodes = io.StringIO("node_id\nu\nv\n")
        links = io.StringIO(
            "link_id,from_node,to_node,capacity,length,free_speed\na,u,v,1800,10,50\n"
        )
        net = load_network(nodes, links)
        (a,) = net.links
        assert a.free_flow_time == pytest.approx(0.2)

    def test_load_network_overrides(self):
        nodes = io.StringIO("node_id\nu\nv\n")
        links = io.StringIO(
            "link_id,from_node,to_node,capacity,free_flow_time,gamma\na,u,v,1800,0.25,0.2\n"
        )
        net = load_network(nodes, links)
        (a,) = net.links
        assert a.overrides == (("gamma", 0.2),)

    def test_load_network_bad_value(self):
        nodes = io.StringIO("node_id\nu\nv\n")
        links = io.StringIO(
            "link_id,from_node,to_node,capacity,free_flow_time\na,u,v,oops,0.25\n"
        )
        with pytest.raises(NetworkError, match="capacity"):
            load_network(nodes, links)

    @pytest.mark.parametrize(
        "key, cell, what",
        [
            ("length", "abc", "length='abc' is not a finite number"),
            ("gamma", "0.9x", "gamma='0.9x' is not a finite number"),
            ("gamma", "nan", "gamma='nan' is not a finite number"),
            ("gamma", "inf", "gamma='inf' is not a finite number"),
            ("gamma", "-1", "link c: gamma must be >= 0"),
            ("gamma", "1", "link c: gamma must be < 1"),
            ("gamma", "1e6", "link c: gamma must be < 1"),
            ("m", "0", "link c: m and n must be > 0"),
        ],
        ids=["length-abc", "gamma-0.9x", "gamma-nan", "gamma-inf", "gamma-negative"]
        + ["gamma-one", "gamma-1e6", "m-zero"],
    )
    def test_bad_link_number_names_row_and_column(self, key, cell, what):
        # a cell that did not parse escaped as a bare ValueError, and a
        # non-finite or negative override was refused only by the solve
        nodes = io.StringIO("node_id\nu\nv\n")
        links = io.StringIO(
            f"link_id,from_node,to_node,capacity,free_flow_time,{key}\n"
            f"a,u,v,1800,0.25,\nb,v,u,1800,0.25,\n\nc,u,v,1800,0.25,{cell}\n"
        )
        with pytest.raises(NetworkError, match=re.escape(f"row 5: {what}")):
            load_network(nodes, links)

    def test_path_set_round_trip(self, six_node):
        buf = io.StringIO()
        write_path_set(six_node, buf)
        buf.seek(0)
        again = load_path_set(buf, six_node.network)
        assert [p.links for p in again.paths] == [p.links for p in six_node.paths]

    @given(st.data())
    def test_written_path_table_reads_back(self, data):
        # ids that hold a comma or a quote: the cells were written unquoted,
        # so such a row read back with a cell too many; a first link id
        # that starts with "[" or a last one that ends with "]" lost it.
        # Every id that Node and Link accept reads back: a node "#u" read
        # back as a comment, a link "a;b" as the two links a and b
        text = st.text(st.sampled_from('ab1,"#; []\t'), min_size=0, max_size=5)
        node_ids = text.filter(lambda s: _accepted(Node, s))
        link_ids = text.filter(lambda s: _accepted(Link, s, "u", "v", 0.1, 1000.0))
        nodes = data.draw(st.lists(node_ids, min_size=2, max_size=5, unique=True))
        n = len(nodes) - 1
        links = data.draw(st.lists(link_ids, min_size=n, max_size=n, unique=True))
        # a chain of nodes; OD pair i runs from node i to the last node
        network = _net(
            nodes,
            [Link(lid, nodes[i], nodes[i + 1], 0.1, 1000.0) for i, lid in enumerate(links)],
            [ODPair(node, nodes[-1], 100.0) for node in nodes[:-1]],
        )
        ps = PathSet(network, [Path(i, tuple(links[i:])) for i in range(n)])
        sink = io.StringIO()
        write_path_set(ps, sink)
        assert load_path_set(io.StringIO(sink.getvalue()), network).paths == ps.paths

    def test_path_checks_its_links(self):
        with pytest.raises(PathError, match="empty link sequence"):
            Path(0, ())
        with pytest.raises(PathError, match=re.escape("path ('a', 'b', 'a') repeats a link")):
            Path(0, ("a", "b", "a"))

    def test_load_path_set_comments_and_header(self, six_node):
        text = "origin,destination,links\n# comment\n1,3,1\n1,3,3;4;6\n2,4,2\n2,4,5;4;7\n"
        ps = load_path_set(io.StringIO(text), six_node.network)
        assert ps.n_paths == 4

    @pytest.mark.parametrize("prefix", ["# six-node paths\n", "\n"], ids=["comment", "blank"])
    def test_load_path_set_header_after_comment_or_blank(self, six_node, scenario_dir, prefix):
        # the header was dropped only on the file's first line, so a comment
        # or blank line before it made it a path of OD origin->destination
        text = (scenario_dir / "paths.csv").read_text()
        plain = load_path_set(io.StringIO(text), six_node.network)
        ps = load_path_set(io.StringIO(prefix + text), six_node.network)
        assert [p.links for p in ps.paths] == [p.links for p in plain.paths]
        assert ps.n_paths == 4
        assert np.array_equal(ps.entry_link, plain.entry_link)

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["before_header", "after_header", "between_rows"])
    @pytest.mark.parametrize("table", TABLES)
    def test_comments_and_blank_lines_skipped_in_every_table(self, tables, table, at):
        # nodes, links and demands read a `#` line as a row, and a comment
        # before the header as the header
        texts = dict(tables)
        plain = _load_tables(texts)
        lines = texts[table].splitlines(keepends=True)
        texts[table] = "".join(lines[:at] + ["# note\n", "\n", "  # indented\n"] + lines[at:])
        ps = _load_tables(texts)
        assert ps.network == plain.network
        assert ps.paths == plain.paths
        assert np.array_equal(ps.entry_link, plain.entry_link)

    @pytest.mark.parametrize("table", TABLES)
    def test_header_names_are_stripped(self, tables, table):
        texts = dict(tables)
        plain = _load_tables(texts)
        header, rows = texts[table].split("\n", 1)
        texts[table] = header.replace(",", ", ") + "\n" + rows
        ps = _load_tables(texts)
        assert ps.network == plain.network and ps.paths == plain.paths

    @pytest.mark.parametrize(
        "columns, cells",
        [("capacity,capacity", "1800,900"), ("capacity,gamma,gamma", "1800,0.2,0.9")],
        ids=["capacity", "gamma"],
    )
    def test_header_naming_a_column_twice_refused(self, tmp_path, columns, cells):
        # the later cell won without a word: capacity 900, gamma 0.9
        nodes = io.StringIO("node_id\nu\nv\n")
        path = tmp_path / "links.csv"
        path.write_text(f"link_id,from_node,to_node,free_flow_time,{columns}\na,u,v,0.25,{cells}\n")
        name = columns.rsplit(",", 1)[1]
        with open(path) as links, pytest.raises(
            NetworkError, match=re.escape(f"{path}: header names column '{name}' twice")
        ):
            load_network(nodes, links)

    def test_repeated_path_names_its_lines(self, six_node):
        # a second 1,3,1 row loaded as a fifth path that carried nothing
        text = "origin,destination,links\n\n1,3,1\n1,3,3;4;6\n\n1,3,1\n"
        what = "path ('1',) of OD pair 1->3 given twice, on rows 3 and 6"
        with pytest.raises(NetworkError, match=re.escape(what)):
            load_path_set(io.StringIO(text), six_node.network)

    def test_repeated_od_pair_names_its_lines(self, six_node):
        # blank lines used to shift the reported rows to 2 and 4
        text = "origin,destination,demand\n\n1,3,3000\n\n2,4,3000\n1,3,500\n"
        with pytest.raises(NetworkError, match="1->3 given twice, on rows 3 and 6"):
            load_demands(io.StringIO(text), six_node.network)

    @pytest.mark.parametrize(
        "table, row, what",
        [
            ("nodes.csv", "7,oops,0", "x_coord='oops'"),
            ("links.csv", "8,1,3,0.417,29.17,70,oops", "capacity='oops'"),
            ("demands.csv", "1,4,oops", "demand='oops'"),
            ("paths.csv", "1,4,1", "unknown OD pair 1->4"),
            # the records' own errors named no row
            ("demands.csv", "1,4,-5", "OD 1->4: demand must be finite and >= 0"),
            ("demands.csv", "3,3,100", "OD pair with origin == destination (3)"),
            ("links.csv", "8,1,3,0.5,29.17,70,1800", "link 8: free_flow_time 0.5 inconsistent"),
            ("links.csv", "8,1,3,0.417,0,70,1800", "link 8: length and free_speed must be"),
            # a path checks its own links
            ("paths.csv", "1,3,1;1", "path ('1', '1') repeats a link"),
        ],
        ids=TABLES
        + ("demand-negative", "origin-is-destination", "time-inconsistent", "length-zero")
        + ("path-repeats-link",),
    )
    def test_row_error_names_its_line(self, tables, table, row, what):
        texts = dict(tables)
        lines = texts[table].splitlines()
        texts[table] = "\n".join(lines[:1] + [""] + lines[1:] + [row]) + "\n"
        with pytest.raises(NetworkError, match=re.escape(f"row {len(lines) + 2}: {what}")):
            _load_tables(texts)

    @pytest.mark.parametrize("table", TABLES)
    def test_row_with_more_cells_than_header_refused(self, tables, table):
        texts = dict(tables)
        lines = texts[table].splitlines()
        texts[table] = "\n".join(lines + [lines[-1] + ",extra"]) + "\n"
        n_cells = lines[-1].count(",") + 2
        with pytest.raises(NetworkError, match=f"row {len(lines) + 1}: {n_cells} cells"):
            _load_tables(texts)

    @pytest.mark.parametrize("table", TABLES)
    def test_undeclared_column_refused_in_every_table(self, tables, table):
        # a column no loader read was dropped without a word
        texts = dict(tables)
        header, rows = texts[table].split("\n", 1)
        texts[table] = header + ",id\n" + rows
        with pytest.raises(NetworkError, match="header names unknown column 'id'"):
            _load_tables(texts)

    def test_path_table_needs_its_header(self, tables, six_node):
        headless = tables["paths.csv"].split("\n", 1)[1]
        with pytest.raises(NetworkError, match="header '1,3,1' must name origin, destination, links"):
            load_path_set(io.StringIO(headless), six_node.network)


class TestPathSet:
    def test_six_node_paths(self, six_node):
        assert six_node.n_paths == 4
        assert [p.links for p in six_node.paths] == [
            ("1",),
            ("3", "4", "6"),
            ("2",),
            ("5", "4", "7"),
        ]

    def test_incidence(self, six_node):
        # the dense incidence, built from the path-link entries
        inc = np.zeros((six_node.n_links, six_node.n_paths))
        inc[six_node.entry_link, six_node.entry_path] = 1.0
        assert inc.shape == (7, 4)
        assert inc[six_node.link_index("4"), 1] == 1.0
        assert inc[six_node.link_index("4"), 3] == 1.0
        assert inc[six_node.link_index("4"), 0] == 0.0
        assert inc.sum() == 8.0  # 1 + 3 + 1 + 3 links over the four paths

    def test_running_sum_and_held_upstream_restart_on_every_path(self):
        # a chain u0 -> u4 and paths of 3, 1, 4 and 2 links; integer-valued
        # inputs keep every sum exact
        nodes = tuple(Node(f"u{i}") for i in range(5))
        links = tuple(Link(f"a{i}", f"u{i}", f"u{i + 1}", 0.1, 1000.0) for i in range(4))
        ods = tuple(ODPair("u0", f"u{i}", 100.0) for i in range(1, 5))
        ps = PathSet(
            Network(nodes, links, ods),
            [Path(k - 1, tuple(f"a{i}" for i in range(k))) for k in (3, 1, 4, 2)],
        )
        values = np.random.default_rng(0).integers(1, 50, len(ps.entry_link)).astype(float)
        running, upstream = [], []
        entry = 0
        for path in ps.paths:
            total = 0.0
            for _ in path.links:
                upstream.append(total)
                total += values[entry]
                running.append(total)
                entry += 1
        assert ps.running_sum(values).tolist() == running
        assert ps.held_upstream(values).tolist() == upstream
        first = np.flatnonzero(np.diff(ps.entry_path, prepend=-1))
        assert len(first) == ps.n_paths
        assert np.all(ps.held_upstream(values)[first] == 0.0)

    def test_path_link_entries(self, six_node):
        # link 4 is the second link of paths 1 and 3
        at4 = np.flatnonzero(six_node.entry_link == six_node.link_index("4"))
        assert six_node.entry_path[at4].tolist() == [1, 3]
        assert (at4 - six_node.path_start[[1, 3]]).tolist() == [1, 1]
        # OD 1->3: path 0 is link 1 alone, path 1 is 3-4-6; it is alone on
        # the GP pass's first level, since OD 2->4 shares link 4 with it
        links = [six_node.network.links[a].id for a in six_node.od_group_links[0]]
        assert links == ["1", "3", "4", "6"]
        first = _group_levels(six_node)[0]
        assert first.paths.tolist() == [0, 1]
        assert first.links.tolist() == six_node.od_group_links[0].tolist()
        assert first.member.tolist() == [[1, 0, 0, 0], [0, 1, 1, 1]]

    @pytest.mark.parametrize(
        "module", ["cost.py", "cli.py", "analysis.py", "sweep.py", "fixtures.py"]
    )
    def test_only_net_and_solver_read_the_entry_layout(self, module):
        # the flat (link, path) entries are `PathSet`'s layout: `solver.py`
        # sums over them and every other module asks it for paths' totals
        layout = {
            "entry_link", "entry_path", "path_start", "held_upstream", "running_sum",
            "path_od",
        }
        source = (pathlib.Path(queuenet.__file__).parent / module).read_text()
        reads = sorted(
            f"{node.attr} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in layout
        )
        assert reads == [], f"{module} reads the entry layout: {reads}"

    def test_broken_chain_rejected(self, six_node):
        net = six_node.network
        with pytest.raises(PathError, match="do not chain"):
            PathSet(net, [Path(0, ("3", "6"))])
        with pytest.raises(PathError, match="origin"):
            PathSet(net, [Path(0, ("2",))])
        with pytest.raises(PathError, match="unknown link"):
            PathSet(net, [Path(0, ("zz",))])

    def test_inputs_read_once_and_read_only(self, six_node, base_state):
        net = six_node.network
        assert six_node.t_f.tolist() == [l.free_flow_time for l in net.links]
        assert six_node.c_max.tolist() == [l.capacity for l in net.links]
        assert six_node.demand.tolist() == [od.demand for od in net.od_pairs]
        # a state reads the path set's arrays rather than copies
        assert base_state.t_f is base_state.path_set.t_f
        assert base_state.c_max is base_state.path_set.c_max
        for name in ("t_f", "c_max", "demand"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(six_node, name)[0] = 1.0

    def test_positive_demand_needs_path(self, six_node):
        net = six_node.network
        with pytest.raises(PathError, match="no path"):
            PathSet(net, [Path(0, ("1",))])  # second OD left uncovered


class TestWithDemands:
    @pytest.mark.parametrize("demands", [[2000.0, 500.0], [0.0, 3500.0]])
    def test_solves_as_a_fresh_path_set(self, six_node, demands):
        ods = [
            ODPair(od.origin, od.destination, d)
            for od, d in zip(six_node.network.od_pairs, demands)
        ]
        fresh = PathSet(six_node.network.with_demands(ods), six_node.paths)
        shared = six_node.with_demands(demands)
        assert shared.network == fresh.network
        for options in (SolverOptions(), SolverOptions(queue_mode="smoothed_gradient")):
            a, ra = solve(shared, options=options, history=True)
            b, rb = solve(fresh, options=options, history=True)
            for name in ("path_flows", "queue_alloc", "link_flows", "link_queues", "link_times"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            assert (ra.iterations, ra.inner_passes, ra.history) == (
                rb.iterations, rb.inner_passes, rb.history
            )

    def test_shares_everything_but_the_demands(self, six_node):
        shared = six_node.with_demands([2000.0, 500.0])
        for name in ("entry_link", "entry_path", "path_start", "path_od", "t_f", "c_max"):
            assert getattr(shared, name) is getattr(six_node, name)
        assert shared.od_groups is six_node.od_groups
        assert shared.od_group_links is six_node.od_group_links
        assert shared.paths is six_node.paths
        assert shared.demand.tolist() == [2000.0, 500.0]
        assert six_node.demand.tolist() == [3000.0, 3000.0]
        with pytest.raises(ValueError, match="read-only"):
            shared.demand[0] = 1.0

    def test_network_checks_only_the_od_pairs(self, six_node):
        # the nodes and links were checked when the network was built; the
        # copy shares them and checks the new OD pairs against the nodes
        network = six_node.network
        other = network.with_demands([ODPair("1", "4", 100.0)])
        assert other.nodes is network.nodes and other.links is network.links
        assert other.od_pairs == (ODPair("1", "4", 100.0),)
        assert len(network.od_pairs) == 2
        shared = six_node.with_demands([2000.0, 500.0]).network
        assert shared.nodes is network.nodes and shared.links is network.links
        for od in (ODPair("1", "9", 100.0), ODPair("9", "3", 0.0)):
            with pytest.raises(NetworkError, match="undeclared node"):
                network.with_demands([od])

    def test_checks_the_demands(self, six_node):
        # OD 1 has no path here, so it may only keep a zero demand
        od0, od1 = six_node.network.od_pairs
        network = six_node.network.with_demands([od0, ODPair(od1.origin, od1.destination, 0.0)])
        cut = PathSet(network, [p for p in six_node.paths if p.od_index == 0])
        assert cut.with_demands([2500.0, 0.0]).demand.tolist() == [2500.0, 0.0]
        with pytest.raises(PathError, match="positive demand but no path"):
            cut.with_demands([2500.0, 10.0])
        with pytest.raises(NetworkError, match="finite and >= 0"):
            six_node.with_demands([-1.0, 3000.0])
        with pytest.raises(NetworkError, match="finite and >= 0"):
            six_node.with_demands([np.nan, 3000.0])
        with pytest.raises(ValueError, match="OD pair count"):
            six_node.with_demands([3000.0])


#: `enumerate_paths(fixtures.grid_network(15, 12, 1100), 3)` in the
#: `write_path_set` format: the grid15_enum benchmark workload's path set,
#: under the fixture's own link ids.  Its stored reference answers hold
#: only on this path set, so a change to the search order shows here.
GRID15_ENUM_PATHS = """\
origin,destination,links
n14_9,n10_13,l793;l735;l677;l619;l616;l620;l624;l628
n14_9,n10_13,l793;l735;l677;l674;l623;l620;l624;l628
n14_9,n10_13,l793;l735;l677;l674;l678;l627;l624;l628
n8_11,n12_3,l505;l501;l497;l493;l489;l485;l481;l477;l478;l536;l594;l652
n8_11,n12_3,l505;l501;l497;l493;l489;l485;l481;l482;l535;l536;l594;l652
n8_11,n12_3,l505;l501;l497;l493;l489;l485;l481;l482;l540;l593;l594;l652
n0_4,n4_13,l16;l20;l24;l28;l32;l36;l40;l46;l102;l106;l112;l170;l228
n0_4,n4_13,l16;l20;l24;l28;l32;l36;l40;l46;l102;l108;l164;l170;l228
n0_4,n4_13,l16;l20;l24;l28;l32;l36;l40;l46;l102;l108;l166;l222;l228
n13_0,n7_12,l699;l641;l583;l525;l467;l409;l406;l410;l414;l418;l422;l426;l430;l434;l438;l442;l446;l450
n13_0,n7_12,l699;l641;l583;l525;l467;l464;l413;l410;l414;l418;l422;l426;l430;l434;l438;l442;l446;l450
n13_0,n7_12,l699;l641;l583;l525;l467;l464;l468;l417;l414;l418;l422;l426;l430;l434;l438;l442;l446;l450
n1_11,n1_7,l99;l95;l91;l87
n1_11,n1_7,l104;l157;l101;l95;l91;l87
n1_11,n1_7,l104;l157;l153;l149;l145;l89
n12_4,n5_4,l657;l599;l541;l483;l425;l367;l309
n12_4,n5_4,l657;l599;l541;l483;l425;l367;l361;l305;l302
n12_4,n5_4,l657;l599;l541;l483;l425;l419;l363;l305;l302
n10_3,n14_6,l592;l596;l600;l606;l664;l722;l780
n10_3,n14_6,l592;l596;l602;l658;l664;l722;l780
n10_3,n14_6,l592;l596;l602;l660;l716;l722;l780
n7_14,n12_11,l459;l455;l451;l452;l510;l568;l626;l684
n7_14,n12_11,l459;l455;l456;l509;l510;l568;l626;l684
n7_14,n12_11,l459;l455;l456;l514;l567;l568;l626;l684
n10_9,n5_14,l561;l503;l445;l387;l329;l326;l330;l334;l338;l342
n10_9,n5_14,l561;l503;l445;l387;l384;l333;l330;l334;l338;l342
n10_9,n5_14,l561;l503;l445;l387;l384;l388;l337;l334;l338;l342
n6_3,n12_2,l357;l358;l416;l474;l532;l590;l648
n6_3,n12_2,l362;l415;l416;l474;l532;l590;l648
n6_3,n12_2,l362;l420;l473;l474;l532;l590;l648
n12_9,n1_0,l677;l619;l561;l503;l445;l387;l329;l271;l213;l155;l149;l145;l141;l137;l133;l77;l71;l67;l63;l59
n12_9,n1_0,l677;l619;l561;l503;l445;l387;l329;l271;l213;l155;l97;l91;l87;l83;l79;l75;l71;l67;l63;l59
n12_9,n1_0,l677;l619;l561;l503;l445;l387;l329;l271;l213;l207;l151;l145;l141;l85;l79;l75;l71;l67;l63;l59
n6_0,n2_7,l293;l235;l177;l119;l116;l120;l124;l128;l132;l136;l140
n6_0,n2_7,l293;l235;l177;l174;l123;l120;l124;l128;l132;l136;l140
n6_0,n2_7,l293;l235;l177;l174;l178;l127;l124;l128;l132;l136;l140
"""


class TestEnumeration:
    def test_six_node_enumeration_matches_bundle(self, six_node):
        ps = enumerate_paths(six_node.network, k=4)
        assert {p.links for p in ps.paths} == {p.links for p in six_node.paths}

    @pytest.mark.parametrize("k", [2.0, 2.5, True, "3", 0])
    def test_k_must_be_an_integer(self, six_node, k):
        # 2.0 and 2.5 crashed in list indexing, "3" in the comparison, and
        # True enumerated one path per OD pair
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            enumerate_paths(six_node.network, k)

    def test_deterministic_order(self, six_node):
        a = enumerate_paths(six_node.network, k=3)
        b = enumerate_paths(six_node.network, k=3)
        assert [p.links for p in a.paths] == [p.links for p in b.paths]

    def test_parallel_links_collapse_to_cheapest(self):
        links = [
            Link("slow", "u", "v", 0.5, 1000.0),
            Link("fast", "u", "v", 0.2, 1000.0),
        ]
        net = _net(["u", "v"], links, [ODPair("u", "v", 100.0)])
        ps = enumerate_paths(net, k=2)
        assert [p.links for p in ps.paths] == [("fast",)]

    def test_grid15_enum_path_set_is_pinned(self):
        ps = enumerate_paths(fixtures.grid_network(15, 12, 1100.0), 3)
        sink = io.StringIO()
        write_path_set(ps, sink)
        assert sink.getvalue() == GRID15_ENUM_PATHS

    def test_grid15_enum_spur_searches_are_counted(self, monkeypatch):
        # a yielded path searches only from the spur index it was pushed at
        # on, and once k paths are out only where the lower bound is within
        # the k-th cost; searching at every index, as Yen's search does,
        # makes 4,127, and the deviation-index skip alone 2,427
        shortest = _FreeFlowGraph._shortest
        calls = 0

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return shortest(self, *args)

        monkeypatch.setattr(_FreeFlowGraph, "_shortest", counted)
        enumerate_paths(fixtures.grid_network(15, 12, 1100.0), 3)
        assert calls == 964

    @pytest.mark.parametrize("half", [0.5, 1e-13])
    def test_path_within_the_slack_of_the_kth_is_kept(self, half):
        # the search skips spur searches that can only find paths costing
        # more than the k-th; this path costs 1e-13 more, within
        # enumerate_paths' 1e-12 slack, and its link ids sort first, so it
        # is the one path kept.  At half = 1e-13 the k-th costs 2e-13, and
        # the bound's absolute floor keeps the search that finds it
        links = [
            Link("b1", "u", "b", half, 1000.0),
            Link("b2", "b", "v", half + 1e-13, 1000.0),
            Link("c1", "u", "c", half, 1000.0),
            Link("c2", "c", "v", half, 1000.0),
            Link("d1", "u", "v", 4 * half, 1000.0),
        ]
        net = _net(["u", "b", "c", "v"], links, [ODPair("u", "v", 100.0)])
        ps = enumerate_paths(net, k=1)
        assert [p.links for p in ps.paths] == [("b1", "b2")]

    def test_disconnected_od_pair(self):
        links = [Link("a", "u", "v", 0.1, 1000.0), Link("b", "w", "u", 0.1, 1000.0)]
        net = _net(["u", "v", "w"], links, [ODPair("u", "v", 10.0), ODPair("u", "w", 10.0)])
        with pytest.raises(PathError, match=r"^OD u->w is disconnected$"):
            enumerate_paths(net, k=2)

    def test_disconnected_od_pair_without_demand_gets_no_path(self):
        links = [Link("a", "u", "v", 0.1, 1000.0), Link("b", "w", "u", 0.1, 1000.0)]
        net = _net(["u", "v", "w"], links, [ODPair("u", "w", 0.0), ODPair("u", "v", 10.0)])
        ps = enumerate_paths(net, k=2)
        assert [(p.od_index, p.links) for p in ps.paths] == [(1, ("a",))]
        assert len(ps.od_groups[0]) == 0

    def test_k_limits_path_count(self):
        net = fixtures.grid_network(size=4, n_od=3, demand=10.0)
        ps = enumerate_paths(net, k=2)
        for group in ps.od_groups:
            assert 1 <= len(group) <= 2


class TestFixtures:
    def test_grid_shape(self):
        net = fixtures.grid_network()
        assert len(net.nodes) == 225
        assert len(net.links) == 840
        assert len(net.od_pairs) == 50

    @pytest.mark.parametrize(("size", "n_od", "far"), [(3, 5, 4), (2, 1, 0)])
    def test_grid_refuses_more_od_pairs_than_it_has(self, size, n_od, far):
        # the rejection draw used to loop forever on these
        with pytest.raises(ValueError, match=rf"n_od={n_od}: .* has {far} OD pairs"):
            fixtures.grid_network(size, n_od)

    def test_grid_draws_every_pair_it_has(self):
        # a 3x3 grid has 4 ordered pairs 4 steps apart: the opposite corners
        net = fixtures.grid_network(3, 4)
        corners = {("n0_0", "n2_2"), ("n2_2", "n0_0"), ("n0_2", "n2_0"), ("n2_0", "n0_2")}
        assert {(od.origin, od.destination) for od in net.od_pairs} == corners

    def test_two_route(self):
        net = fixtures.two_route_network()
        ps = enumerate_paths(net, k=2)
        assert ps.n_paths == 2
