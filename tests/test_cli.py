"""Tests for the command-line entry points.

The job commands run against tiny synthetic inputs on a thread
cluster; the deployment pair (repro-server / repro-donor) is exercised
over real localhost TCP in a background thread.
"""

import threading

import numpy as np
import pytest

from repro.bio.phylo.models import JC69
from repro.bio.phylo.simulate import (
    alignment_to_sequences,
    random_yule_tree,
    simulate_alignment,
)
from repro.bio.seq import DNA, write_fasta
from repro.bio.seq.generate import random_sequence, seeded_database
from repro.cli.farm import donor_main
from repro.cli.jobs import dboot_main, dprml_main, dsearch_main


@pytest.fixture()
def dsearch_inputs(tmp_path):
    rng = np.random.default_rng(5)
    query = random_sequence("q0", 60, DNA, rng)
    database, homologs = seeded_database(query, 20, 2, seed=6)
    db_path = tmp_path / "db.fasta"
    q_path = tmp_path / "q.fasta"
    write_fasta(db_path, database)
    write_fasta(q_path, [query])
    conf = tmp_path / "dsearch.conf"
    conf.write_text("algorithm = sw\ntop_hits = 3\n")
    return db_path, q_path, conf, homologs


@pytest.fixture()
def alignment_fasta(tmp_path):
    tree = random_yule_tree(6, seed=61, mean_branch=0.15)
    aln = simulate_alignment(tree, JC69(), 300, seed=62)
    path = tmp_path / "aln.fasta"
    write_fasta(path, alignment_to_sequences(aln))
    return path


class TestDSearchCLI:
    def test_writes_tsv(self, dsearch_inputs, tmp_path, capsys):
        db, q, conf, homologs = dsearch_inputs
        out = tmp_path / "hits.tsv"
        code = dsearch_main(
            [str(db), str(q), "--config", str(conf), "--workers", "2",
             "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("query\trank")
        assert len(lines) == 4  # header + top 3
        top_subject = lines[1].split("\t")[2]
        assert top_subject in homologs

    def test_stdout_mode(self, dsearch_inputs, capsys):
        db, q, conf, _h = dsearch_inputs
        dsearch_main([str(db), str(q), "--config", str(conf), "--workers", "2"])
        out = capsys.readouterr().out
        assert "query\trank" in out


class TestDPRmlCLI:
    def test_single_instance_writes_tree(self, alignment_fasta, tmp_path, capsys):
        conf = tmp_path / "dprml.conf"
        conf.write_text("model = jc69\n")
        out = tmp_path / "tree.nwk"
        code = dprml_main(
            [str(alignment_fasta), "--config", str(conf), "--workers", "2",
             "--output", str(out)]
        )
        assert code == 0
        newick = out.read_text().strip()
        from repro.bio.phylo.tree import parse_newick

        assert parse_newick(newick).n_leaves == 6
        assert "logL" in capsys.readouterr().out

    def test_multi_instance_reports_best(self, alignment_fasta, tmp_path, capsys):
        conf = tmp_path / "dprml.conf"
        conf.write_text("model = jc69\n")
        code = dprml_main(
            [str(alignment_fasta), "--config", str(conf), "--workers", "2",
             "--instances", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(best)" in out


class TestDBootCLI:
    def test_prints_supports(self, alignment_fasta, capsys):
        code = dboot_main([str(alignment_fasta), "--replicates", "10", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reference tree:" in out
        assert "support" in out


class TestFarmCLI:
    def test_donor_against_live_server(self, capsys):
        """Full deployment path: facade + RMI server + donor CLI."""
        from repro.cluster.local import ServerFacade
        from repro.core.problem import Problem
        from repro.core.scheduler import FixedGranularity
        from repro.core.server import TaskFarmServer
        from repro.rmi import RMIServer
        from tests.helpers import RangeSumAlgorithm, RangeSumDataManager

        server = TaskFarmServer(policy=FixedGranularity(25), lease_timeout=60.0)
        facade = ServerFacade(server)
        rmi = RMIServer()
        rmi.bind("taskfarm", facade)
        pid = facade.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm())
        )
        try:
            code = donor_main(
                [f"{rmi.host}:{rmi.port}", "--name", "cli-donor", "--idle-sleep", "0.01"]
            )
            assert code == 0
            assert facade.final_result(pid) == sum(range(100))
            out = capsys.readouterr().out
            assert "cli-donor connected" in out
            assert "done after 4 units" in out
        finally:
            rmi.close()

    def test_donor_fetches_shared_blobs_over_data_channel(self, capsys):
        """The deployed cache path: a shared-payload search served over
        repro-server's facade + bulk data channel, worked by the donor
        CLI — blobs must cross the data channel, not the RMI fallback."""
        import numpy as np

        from repro.apps.dsearch import DSearchConfig
        from repro.apps.dsearch import build_problem as build_dsearch_problem
        from repro.bio.seq import DNA
        from repro.bio.seq.generate import random_sequence, seeded_database
        from repro.cluster.local import ServerFacade
        from repro.core.integrity import canonical_digest
        from repro.core.scheduler import FixedGranularity
        from repro.core.server import TaskFarmServer
        from repro.rmi import RMIServer
        from repro.rmi.datachannel import DataChannelServer

        rng = np.random.default_rng(5)
        query = random_sequence("q0", 48, DNA, rng)
        database, _ = seeded_database(
            query, decoy_count=10, homolog_count=2, seed=6,
            substitution_rate=0.1,
        )

        def deploy_and_run(share: bool, *donor_args: str):
            server = TaskFarmServer(
                policy=FixedGranularity(3), lease_timeout=60.0
            )
            data_channel = DataChannelServer(meters=server.obs.meters)
            facade = ServerFacade(server, data_channel=data_channel)
            rmi = RMIServer()
            rmi.bind("taskfarm", facade)
            pid = facade.submit(
                build_dsearch_problem(
                    database,
                    [query],
                    DSearchConfig(top_hits=3, share_payloads=share),
                )
            )
            try:
                code = donor_main(
                    [f"{rmi.host}:{rmi.port}", "--name", "blob-donor",
                     "--idle-sleep", "0.01", *donor_args]
                )
                assert code == 0
                result = facade.final_result(pid)
            finally:
                rmi.close()
                data_channel.close()
            return canonical_digest(result), server.obs.meters.snapshot()

        cached_digest, cached_snap = deploy_and_run(share=True)
        plain_digest, _plain_snap = deploy_and_run(share=False)
        assert cached_digest == plain_digest
        counters = cached_snap["counters"]
        assert counters["net.blob.deliveries"] > 0
        assert counters["net.blob.published"] > 0
        # The blobs travelled over the bulk channel, not RMI.
        assert counters["data.transfers.out"] > 0
        assert counters.get("farm.cache.bypass", 0) == 0

        # --cache-mb below the ~3 KB database blob (but above the query
        # blob): same result, and the database bypasses the cache on
        # each of the 4 units.
        small_digest, small_snap = deploy_and_run(True, "--cache-mb", "0.001")
        assert small_digest == plain_digest
        assert small_snap["counters"]["farm.cache.bypass"] == 4

    def test_donor_bad_address(self):
        with pytest.raises(SystemExit):
            donor_main(["localhost"])  # missing port
        with pytest.raises(SystemExit):
            donor_main(["localhost:notaport"])

    def test_donor_rejects_nonpositive_cache(self):
        with pytest.raises(SystemExit):
            donor_main(["localhost:1", "--cache-mb", "0"])
