"""Fixtures shared by the test modules."""

import dataclasses
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from csns import driver, io


def half_spectrum_tables(box):
    """The wavenumber tables of the whole half spectrum (rfft layout) of
    box, made from np.fft.fftfreq apart from the code under test: xi, one
    array per axis broadcasting against the (N, ..., N//2+1) layout; xi_sq
    and inv_xi_sq (0 at the mean), which fill it; parseval_weight, the
    conjugate-pair multiplicities along the last axis; and dealias, the
    modes with |k| <= N//3 on every axis, which the 2/3 rule keeps."""
    N = box.N
    k = np.ix_(*[np.fft.fftfreq(N, 1.0 / N)] * (box.d - 1),
               np.fft.rfftfreq(N, 1.0 / N))
    xi = tuple(2.0 * math.pi / box.L * ka for ka in k)
    xi_sq = sum(x**2 for x in xi)
    inv_xi_sq = np.zeros_like(xi_sq)
    inv_xi_sq[xi_sq > 0] = 1.0 / xi_sq[xi_sq > 0]
    weight = np.full(N // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0  # the mean and Nyquist columns stand alone
    dealias = functools.reduce(np.logical_and,
                               [np.abs(ka) <= N // 3 for ka in k])
    return SimpleNamespace(xi=xi, xi_sq=xi_sq, inv_xi_sq=inv_xi_sq,
                           parseval_weight=weight, dealias=dealias)


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
