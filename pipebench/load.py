"""Set-up: read a workload's input files and build the objects its timed
phase uses.

This is the measured part of set-up, so it imports nothing but ``os``:
whatever it loaded itself would otherwise hide the same imports made by
the program.  ``pp`` is the imported polyperc package; ``files`` is the
file list from the workload's ``manifest.json``.
"""

import os


class _NullSpan:
    def add(self, key, amount):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    span_object = _NullSpan()

    def span(self, name):
        return self.span_object


def _pointwise(pp, read, files, trace):
    polys, nets, batches, deep, norms = [], [], [], [], []
    for slot in files["poly"]:
        text = read(slot["bundle"])
        with trace.span("polyhedra.parse_bundle"):
            poly = pp.parse_bundle(text)
        lines = read(slot["points"]).splitlines()
        with trace.span("geometry.parse_point") as span:
            batch = [pp.parse_point(line) for line in lines]
        span.add("geometry.values", len(batch) * poly.dimension)
        dnf = poly.mode is pp.Mode.DNF
        with trace.span("transform.build_dnf_network" if dnf else "transform.build_cnf_network"):
            net = (pp.build_dnf_network if dnf else pp.build_cnf_network)(poly.halfspaces, poly.scheme)
        polys.append(poly)
        batches.append(batch)
        nets.append(net)
    for name in files["deep"]:
        text = read(name)
        with trace.span("network.parse_network"):
            net = pp.parse_network(text)
        with trace.span("transform.normalize_three_layers"):
            norms.append(pp.normalize_three_layers(net))
        deep.append(net)
    return {"polys": polys, "nets": nets, "batches": batches, "deep": deep, "norms": norms}


def _enumerate(pp, read, files, trace):
    nets = []
    for name in files["nets"]:
        text = read(name)
        with trace.span("network.parse_network"):
            nets.append(pp.parse_network(text))
    return {"nets": nets}


def _halfspaces(pp, read, name, trace):
    lines = read(name).splitlines()
    with trace.span("geometry.parse_halfspace_block") as span:
        block = pp.parse_halfspace_block(lines)
    span.add("geometry.values", sum(h.dimension + 1 for h in block))
    return block


def _cells(pp, read, files, trace):
    arrangements, schemes, nets, pairs, systems = [], [], [], [], []
    for slot in files["arrangements"]:
        arrangements.append(_halfspaces(pp, read, slot["halfspaces"], trace))
        text = read(slot["scheme"])
        with trace.span("indexing.parse_scheme"):
            schemes.append(pp.parse_scheme(text))
        text = read(slot["net"])
        with trace.span("network.parse_network"):
            nets.append(pp.parse_network(text))
    for left, right in files["equiv"]:
        texts = read(left), read(right)
        with trace.span("network.parse_network"):
            pairs.append(tuple(pp.parse_network(t) for t in texts))
    for name in files["systems"]:
        block = _halfspaces(pp, read, name, trace)
        systems.append(pp.InequalitySystem(tuple((h.form, h.kind) for h in block)))
    return {"arrangements": arrangements, "schemes": schemes, "nets": nets,
            "pairs": pairs, "systems": systems}


def _algebra(pp, read, files, trace):
    slots = []
    for slot in files["slots"]:
        texts = [read(slot[key]) for key in ("a", "b", "c")]
        with trace.span("polyhedra.parse_bundle"):
            slots.append(tuple(pp.parse_bundle(t) for t in texts))
    return {"slots": slots}


LOADERS = {"pointwise": _pointwise, "enumerate": _enumerate, "cells": _cells, "algebra": _algebra}


def load(workload, pp, workdir, files, trace=None):
    def read(name):
        with open(os.path.join(workdir, name), encoding="utf-8") as handle:
            return handle.read()

    return LOADERS[workload](pp, read, files, trace or NullTracer())
