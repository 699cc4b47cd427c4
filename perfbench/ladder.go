package main

import (
	"context"
	"errors"
	"fmt"

	crackdb "repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/updates"
)

// rung is one in-process layer of the ladder, built fresh over the run's
// data: the traced run replays the served sequence against it.
type rung struct {
	name  string
	reads bool // read-only: it cannot apply writes and is not safe for concurrent use
	build func(c config) (newTarget func() target, stats func() core.Stats, err error)
}

var rungs = []rung{
	{name: "core", reads: true, build: buildCore},
	{name: "exec", build: buildExec},
	{name: "crackdb", build: buildCrackdb},
}

// buildCore is core.Build -> Index.Query: the engine alone, without the
// executor's read-only path, so it may crack more than the rungs above.
func buildCore(c config) (func() target, func() core.Stats, error) {
	ix, err := core.Build(crackdb.MakeData(c.n, c.seed), crackdb.DD1R, core.Options{Seed: c.seed})
	if err != nil {
		return nil, nil, err
	}
	return func() target { return &coreTarget{ix: ix} }, ix.Stats, nil
}

// buildExec builds the executor as crackdb.Open builds Shared mode: the
// engine, wrapped for updates, behind exec.New.
func buildExec(c config) (func() target, func() core.Stats, error) {
	ix, err := core.Build(crackdb.MakeData(c.n, c.seed), crackdb.DD1R, core.Options{Seed: c.seed})
	if err != nil {
		return nil, nil, err
	}
	u, ok := updates.Wrap(ix)
	if !ok {
		return nil, nil, fmt.Errorf("exec rung: %s takes no updates", ix.Name())
	}
	x := exec.New(u)
	return func() target { return &execTarget{x: x} }, x.Stats, nil
}

func buildCrackdb(c config) (func() target, func() core.Stats, error) {
	db, err := crackdb.Open(crackdb.MakeData(c.n, c.seed), crackdb.DD1R, crackdb.WithSeed(c.seed), crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		return nil, nil, err
	}
	return func() target { return &dbTarget{db: db} }, db.Stats, nil
}

var errReadOnly = errors.New("rung applies no writes")

type coreTarget struct {
	ix  core.Index
	buf []int64
}

func (t *coreTarget) read(_ context.Context, lo, hi int64) (answer, error) {
	t.buf = t.ix.Query(lo, hi).Materialize(t.buf[:0])
	return answer{vals: t.buf}, nil
}

func (t *coreTarget) write(context.Context, op) (server.UpdateResponse, error) {
	return server.UpdateResponse{}, errReadOnly
}

type execTarget struct {
	x   *exec.Executor
	buf []int64
}

func (t *execTarget) read(ctx context.Context, lo, hi int64) (answer, error) {
	var err error
	t.buf, err = t.x.QueryAppendCtx(ctx, lo, hi, t.buf[:0])
	return answer{vals: t.buf}, err
}

func (t *execTarget) write(_ context.Context, o op) (server.UpdateResponse, error) {
	_, _, err := t.x.ApplyOps([]exec.Op{{Value: o.lo, Delete: o.kind == opDelete}})
	return server.UpdateResponse{}, err
}

type dbTarget struct {
	db  *crackdb.DB
	buf []int64
}

func (t *dbTarget) read(ctx context.Context, lo, hi int64) (answer, error) {
	var err error
	t.buf, err = t.db.QueryAppend(ctx, crackdb.Range(lo, hi), t.buf[:0])
	return answer{vals: t.buf}, err
}

func (t *dbTarget) write(ctx context.Context, o op) (server.UpdateResponse, error) {
	var ins, del []int64
	if o.kind == opDelete {
		del = []int64{o.lo}
	} else {
		ins = []int64{o.lo}
	}
	_, err := t.db.ApplyBatch(ctx, ins, del)
	return server.UpdateResponse{}, err
}
