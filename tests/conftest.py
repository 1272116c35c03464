"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from csns import driver, io


@pytest.fixture
def killed_run():
    """run(cfg, step) runs cfg with a checkpoint every step steps, then
    leaves the series as a process killed after its first checkpoint leaves
    it: the rows that checkpoint counts, and half of the next row.  It
    returns the checkpoint and the series path."""

    def run(cfg, step):
        cfg = dataclasses.replace(cfg, output=dataclasses.replace(
            cfg.output, checkpoint_every_steps=step))
        res = driver.run(cfg)
        checkpoint = res.checkpoint_paths[0]
        n_written = io.read_checkpoint(checkpoint)["n_written"]
        lines = res.series_path.read_bytes().splitlines(keepends=True)
        cut = lines[1 + n_written]
        res.series_path.write_bytes(b"".join(lines[:1 + n_written])
                                    + cut[:len(cut) // 2])
        return checkpoint, res.series_path

    return run
