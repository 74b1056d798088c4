package storlet

import (
	"encoding/json"
	"fmt"
	"io"

	"scoop/internal/pushdown"
)

// This file implements the Storlets deployment story: "a developer can
// write code, package and deploy it as a regular object" (paper §V). Go
// cannot load code at runtime, so the honest equivalent is a two-level
// scheme:
//
//   - filter *factories* are compiled in and registered once (the sandbox
//     images of real Storlets), and
//   - *manifests* — JSON documents stored as regular objects — instantiate
//     parameterized filters from those factories under new names, at
//     runtime, without touching the store's code.
//
// A manifest can also define a named pipeline of already-deployed filters
// (a macro), which tenants then invoke as a single pushdown task.

// Factory instantiates filters of one type from manifest parameters.
type Factory interface {
	// Type is the manifest "type" string this factory handles.
	Type() string
	// New builds a filter instance that will be deployed under name.
	New(name string, params map[string]string) (Filter, error)
}

// Manifest is the deployable description of a filter instance.
type Manifest struct {
	// Name the new filter is deployed under.
	Name string `json:"name"`
	// Type selects the factory ("pipeline" is built in).
	Type string `json:"type"`
	// Params parameterize the factory.
	Params map[string]string `json:"params,omitempty"`
	// Chain defines a pipeline manifest: steps reference already-deployed
	// filters with fixed options.
	Chain []ChainStep `json:"chain,omitempty"`
}

// ChainStep is one stage of a pipeline manifest.
type ChainStep struct {
	Filter  string            `json:"filter"`
	Options map[string]string `json:"options,omitempty"`
	// Columns/Predicates/Schema allow a pipeline step to fix a full task.
	Columns    []string             `json:"columns,omitempty"`
	Predicates []pushdown.Predicate `json:"predicates,omitempty"`
	Schema     string               `json:"schema,omitempty"`
}

// RegisterFactory makes a filter type deployable via manifests.
func (e *Engine) RegisterFactory(f Factory) error {
	if f == nil || f.Type() == "" {
		return fmt.Errorf("storlet: factory needs a type")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.factories == nil {
		e.factories = make(map[string]Factory)
	}
	if _, dup := e.factories[f.Type()]; dup {
		return fmt.Errorf("storlet: factory %q already registered", f.Type())
	}
	e.factories[f.Type()] = f
	return nil
}

// DeployManifest parses a manifest document and deploys the filter it
// describes. The manifest may come from any source; object stores deliver
// it as a regular object (see objectstore.DeployStorlets).
func (e *Engine) DeployManifest(data []byte) error {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("storlet: bad manifest: %w", err)
	}
	if m.Name == "" {
		return fmt.Errorf("storlet: manifest missing name")
	}
	if m.Type == "pipeline" || (m.Type == "" && len(m.Chain) > 0) {
		return e.deployPipeline(m)
	}
	e.mu.RLock()
	f, ok := e.factories[m.Type]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("storlet: no factory for type %q", m.Type)
	}
	inst, err := f.New(m.Name, m.Params)
	if err != nil {
		return fmt.Errorf("storlet: factory %q: %w", m.Type, err)
	}
	return e.Register(inst)
}

// deployPipeline registers a named macro filter that runs a fixed chain of
// already-deployed filters.
func (e *Engine) deployPipeline(m Manifest) error {
	if len(m.Chain) == 0 {
		return fmt.Errorf("storlet: pipeline %q has no steps", m.Name)
	}
	tasks := make([]*pushdown.Task, len(m.Chain))
	for i, step := range m.Chain {
		if step.Filter == "" {
			return fmt.Errorf("storlet: pipeline %q step %d missing filter", m.Name, i)
		}
		tasks[i] = &pushdown.Task{
			Filter:     step.Filter,
			Options:    step.Options,
			Columns:    step.Columns,
			Predicates: step.Predicates,
			Schema:     step.Schema,
		}
		if err := tasks[i].Validate(); err != nil {
			return fmt.Errorf("storlet: pipeline %q step %d: %w", m.Name, i, err)
		}
	}
	return e.Register(&pipelineFilter{name: m.Name, engine: e, tasks: tasks})
}

// pipelineFilter invokes a fixed chain through its engine.
type pipelineFilter struct {
	name   string
	engine *Engine
	tasks  []*pushdown.Task
}

// Name implements Filter.
func (p *pipelineFilter) Name() string { return p.name }

// Invoke implements Filter by running the fixed chain. The invocation-time
// task's options are merged into the FIRST step (so callers can still tune
// a deployed pipeline per request).
func (p *pipelineFilter) Invoke(ctx *Context, in io.Reader, out io.Writer) error {
	tasks := make([]*pushdown.Task, len(p.tasks))
	copy(tasks, p.tasks)
	if ctx.Task != nil && len(ctx.Task.Options) > 0 {
		first := *tasks[0]
		merged := make(map[string]string, len(first.Options)+len(ctx.Task.Options))
		for k, v := range first.Options {
			merged[k] = v
		}
		for k, v := range ctx.Task.Options {
			merged[k] = v
		}
		first.Options = merged
		tasks[0] = &first
	}
	base := &Context{
		Ctx:        ctx.Ctx,
		RangeStart: ctx.RangeStart,
		RangeEnd:   ctx.RangeEnd,
		ObjectSize: ctx.ObjectSize,
		Log:        ctx.Log,
	}
	rc, err := p.engine.RunChain(base, tasks, io.NopCloser(in))
	if err != nil {
		return err
	}
	defer rc.Close()
	_, err = io.Copy(out, rc)
	return err
}
