package storlet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"scoop/internal/pushdown"
)

// prefixFactory deploys filters that prepend a fixed prefix to every line.
type prefixFactory struct{}

func (prefixFactory) Type() string { return "prefixer" }

func (prefixFactory) New(name string, params map[string]string) (Filter, error) {
	prefix, ok := params["prefix"]
	if !ok {
		return nil, fmt.Errorf("prefixer needs a prefix param")
	}
	return FilterFunc{
		FilterName: name,
		Fn: func(_ *Context, in io.Reader, out io.Writer) error {
			b, err := io.ReadAll(in)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
				if _, err := fmt.Fprintf(out, "%s%s\n", prefix, line); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

func TestRegisterFactoryValidation(t *testing.T) {
	e := NewEngine(Limits{})
	if err := e.RegisterFactory(nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := e.RegisterFactory(prefixFactory{}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterFactory(prefixFactory{}); err == nil {
		t.Error("duplicate factory accepted")
	}
}

func TestDeployManifestFactory(t *testing.T) {
	e := NewEngine(Limits{})
	if err := e.RegisterFactory(prefixFactory{}); err != nil {
		t.Fatal(err)
	}
	manifest := `{"name": "tagger", "type": "prefixer", "params": {"prefix": ">> "}}`
	if err := e.DeployManifest([]byte(manifest)); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Task: &pushdown.Task{Filter: "tagger"}, RangeEnd: 8, ObjectSize: 8}
	rc, err := e.Run(ctx, strings.NewReader("a\nb\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(b) != ">> a\n>> b\n" {
		t.Fatalf("got %q, %v", b, err)
	}
}

func TestDeployManifestErrors(t *testing.T) {
	e := NewEngine(Limits{})
	_ = e.RegisterFactory(prefixFactory{})
	bad := []string{
		`not json`,
		`{"type": "prefixer"}`,                     // missing name
		`{"name": "x", "type": "ghost"}`,           // unknown factory
		`{"name": "x", "type": "prefixer"}`,        // factory param error
		`{"name": "p", "type": "pipeline"}`,        // pipeline without steps
		`{"name": "p", "chain": [{"filter": ""}]}`, // step without filter
		`{"name": "p", "chain": [{"filter": "f", "predicates": [{"col": "c", "op": "bogus"}]}]}`,
	}
	for i, m := range bad {
		if err := e.DeployManifest([]byte(m)); err == nil {
			t.Errorf("manifest %d accepted: %s", i, m)
		}
	}
	// Duplicate deploy surfaces ErrAlreadyDeployed.
	ok := `{"name": "dup", "type": "prefixer", "params": {"prefix": "x"}}`
	if err := e.DeployManifest([]byte(ok)); err != nil {
		t.Fatal(err)
	}
	err := e.DeployManifest([]byte(ok))
	if !errors.Is(err, ErrAlreadyDeployed) {
		t.Errorf("duplicate deploy error = %v, want ErrAlreadyDeployed", err)
	}
}

func TestDeployPipelineRedeployIsAlreadyDeployed(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper)
	manifest := []byte(`{"name": "p", "chain": [{"filter": "upper"}]}`)
	if err := e.DeployManifest(manifest); err != nil {
		t.Fatal(err)
	}
	// Redeploying the same pipeline is idempotent from a deploy flow's view:
	// it reports ErrAlreadyDeployed, which callers treat as success.
	if err := e.DeployManifest(manifest); !errors.Is(err, ErrAlreadyDeployed) {
		t.Fatalf("pipeline redeploy: want ErrAlreadyDeployed, got %v", err)
	}
	// And the original deployment still works.
	if got, err := runTask(t, e, "p", "hi"); err != nil || got != "HI" {
		t.Fatalf("pipeline after redeploy: %q, %v", got, err)
	}
}

func TestRunChainPropagatesFirstStageError(t *testing.T) {
	boom := FilterFunc{FilterName: "boom", Fn: func(_ *Context, _ io.Reader, _ io.Writer) error {
		return fmt.Errorf("first stage exploded")
	}}
	e := newTestEngine(t, Limits{}, boom, upper, reverse)
	base := &Context{RangeEnd: 3, ObjectSize: 3}
	tasks := []*pushdown.Task{{Filter: "boom"}, {Filter: "upper"}, {Filter: "reverse"}}
	rc, err := e.RunChain(base, tasks, io.NopCloser(strings.NewReader("abc")))
	if err != nil {
		t.Fatalf("chain start: %v", err)
	}
	defer rc.Close()
	_, err = io.ReadAll(rc)
	var fe *FilterError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FilterError, got %v", err)
	}
	if fe.Filter != "boom" {
		t.Fatalf("error attributed to %q, want the FIRST failing stage %q", fe.Filter, "boom")
	}
	if !strings.Contains(err.Error(), "first stage exploded") {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestPipelineManifestPropagatesContext(t *testing.T) {
	// A pipeline macro must forward Context.Ctx to its stages: a filter that
	// inspects ctx.Ctx sees the request context, not nil.
	gotCtx := make(chan bool, 1)
	probe := FilterFunc{FilterName: "probe", Fn: func(ctx *Context, in io.Reader, out io.Writer) error {
		gotCtx <- ctx.Ctx != nil
		_, err := io.Copy(out, in)
		return err
	}}
	e := newTestEngine(t, Limits{}, probe)
	if err := e.DeployManifest([]byte(`{"name": "p", "chain": [{"filter": "probe"}]}`)); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{
		Ctx:      context.Background(),
		Task:     &pushdown.Task{Filter: "p"},
		RangeEnd: 2, ObjectSize: 2,
	}
	rc, err := e.Run(ctx, strings.NewReader("ok"))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); err != nil {
		t.Fatal(err)
	}
	if !<-gotCtx {
		t.Fatal("pipeline stage did not receive Context.Ctx")
	}
}

func TestDeployPipelineManifest(t *testing.T) {
	e := NewEngine(Limits{})
	_ = e.Register(upper)
	_ = e.Register(reverse)
	manifest := `{"name": "shout-backwards", "type": "pipeline", "chain": [
		{"filter": "upper"},
		{"filter": "reverse"}
	]}`
	if err := e.DeployManifest([]byte(manifest)); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Task: &pushdown.Task{Filter: "shout-backwards"}, RangeEnd: 3, ObjectSize: 3}
	rc, err := e.Run(ctx, strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(b) != "CBA" {
		t.Fatalf("got %q, %v", b, err)
	}
}

func TestPipelineOptionMerge(t *testing.T) {
	e := NewEngine(Limits{})
	echoOpt := FilterFunc{
		FilterName: "echo-opt",
		Fn: func(ctx *Context, _ io.Reader, out io.Writer) error {
			fmt.Fprintf(out, "%s/%s", ctx.Task.Options["fixed"], ctx.Task.Options["var"])
			return nil
		},
	}
	_ = e.Register(echoOpt)
	manifest := `{"name": "macro", "chain": [{"filter": "echo-opt", "options": {"fixed": "F"}}]}`
	if err := e.DeployManifest([]byte(manifest)); err != nil {
		t.Fatal(err)
	}
	// Invocation-time options merge into the first step.
	ctx := &Context{
		Task:     &pushdown.Task{Filter: "macro", Options: map[string]string{"var": "V"}},
		RangeEnd: 1, ObjectSize: 1,
	}
	rc, err := e.Run(ctx, strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "F/V" {
		t.Errorf("got %q", b)
	}
}
