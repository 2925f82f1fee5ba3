// Package simllm provides deterministic expert-policy language models that
// implement llm.Client for STELLAR's offline evaluation. Each model profile
// (Claude-3.7-Sonnet, GPT-4o, GPT-4.5, Gemini-2.5-Pro, Llama-3.1-70B)
// emulates the qualitative behaviour the paper reports: grounded answers
// when RAG context is provided, hallucinated parameter facts without it,
// degraded tuning without parameter descriptions or workload analysis, and
// model-dependent aggressiveness as the Tuning Agent.
//
// The models are rule engines, not neural networks; DESIGN.md documents
// this substitution. All agent-facing behaviour flows through the same
// prompts and tool-call protocol a real endpoint would use, so a hosted
// backend behind llm.Client would change nothing structurally.
package simllm

import (
	"context"
	"fmt"
	"strings"

	"stellar/internal/llm"
	"stellar/internal/protocol"
)

// Profile captures a model's behavioural parameters.
type Profile struct {
	Name string
	// Aggressiveness scales how far the tuning policy pushes windows and
	// cache sizes (1.0 = expert-level).
	Aggressiveness float64
	// SkipsSecondaryLevers drops the less obvious parameters (short I/O,
	// lock LRU) from generated configurations, as weaker models do.
	SkipsSecondaryLevers bool
	// Priors holds the model's parametric "memory" about specific
	// parameters, including hallucinated facts, used when no RAG context
	// or parameter descriptions are available.
	Priors map[string]Prior
}

// Prior is a model's from-memory belief about one parameter.
type Prior struct {
	Definition        string
	DefinitionCorrect bool
	Min, Max          int64
	RangeCorrect      bool
}

// Known model names.
const (
	Claude37  = "claude-3.7-sonnet"
	GPT4o     = "gpt-4o"
	GPT45     = "gpt-4.5"
	Gemini25  = "gemini-2.5-pro"
	Llama3170 = "llama-3.1-70b-instruct"
)

// profiles reproduces Figure 2's hallucination pattern for
// llite.statahead_max (true range 0..8192, definition: asynchronous
// attribute prefetch depth for directory traversals): every model gets the
// maximum wrong, and GPT-4.5 and Gemini-2.5-Pro also flaw the definition.
var profiles = map[string]*Profile{
	Claude37: {
		Name: Claude37, Aggressiveness: 1.0,
		Priors: map[string]Prior{
			"llite.statahead_max": {
				Definition:        "Maximum number of directory entries whose attributes are prefetched asynchronously during traversals.",
				DefinitionCorrect: true,
				Min:               0, Max: 128, RangeCorrect: false,
			},
			"lov.stripe_count": {
				Definition:        "Number of OSTs a file is striped across; -1 stripes across all OSTs.",
				DefinitionCorrect: true,
				Min:               -1, Max: 2000, RangeCorrect: false,
			},
		},
	},
	GPT4o: {
		Name: GPT4o, Aggressiveness: 0.9,
		Priors: map[string]Prior{
			"llite.statahead_max": {
				Definition:        "Maximum number of asynchronous stat-ahead requests issued during directory scans.",
				DefinitionCorrect: true,
				Min:               0, Max: 1024, RangeCorrect: false,
			},
		},
	},
	GPT45: {
		Name: GPT45, Aggressiveness: 0.95,
		Priors: map[string]Prior{
			"llite.statahead_max": {
				Definition:        "Controls how many files the client caches attributes for after a readdir call.",
				DefinitionCorrect: false,
				Min:               0, Max: 64, RangeCorrect: false,
			},
		},
	},
	Gemini25: {
		Name: Gemini25, Aggressiveness: 0.95,
		Priors: map[string]Prior{
			"llite.statahead_max": {
				Definition:        "Sets the maximum age of stat cache entries before they are refreshed from the MDS.",
				DefinitionCorrect: false,
				Min:               0, Max: 256, RangeCorrect: false,
			},
		},
	},
	Llama3170: {
		Name: Llama3170, Aggressiveness: 0.6, SkipsSecondaryLevers: true,
		Priors: map[string]Prior{
			"llite.statahead_max": {
				Definition:        "Number of stat results kept per directory handle.",
				DefinitionCorrect: false,
				Min:               0, Max: 64, RangeCorrect: false,
			},
		},
	},
}

// ProfileFor returns the profile for a model name, defaulting to GPT-4o
// behaviour for unknown names.
func ProfileFor(model string) *Profile {
	if p, ok := profiles[model]; ok {
		return p
	}
	return profiles[GPT4o]
}

// Models lists the available simulated model names.
func Models() []string {
	return []string{Claude37, GPT4o, GPT45, Gemini25, Llama3170}
}

// Client is a deterministic simulated model endpoint.
type Client struct {
	// DefaultModel is used when a request does not name a model.
	DefaultModel string
}

// New creates a client whose unspecified-model requests use model.
func New(model string) *Client { return &Client{DefaultModel: model} }

// Complete implements llm.Client by dispatching on the system-prompt
// marker. The policies are pure functions of the request, so one Client is
// safe for any number of concurrent sessions; ctx is honoured the way a
// real endpoint would honour it — a cancelled request never produces a
// response.
func (c *Client) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	model := req.Model
	if model == "" {
		model = c.DefaultModel
	}
	prof := ProfileFor(model)
	var msg llm.Message
	var err error
	switch {
	case strings.HasPrefix(req.System, protocol.SysExtractJudge):
		msg, err = handleExtractJudge(req)
	case strings.HasPrefix(req.System, protocol.SysImportance):
		msg, err = handleImportance(req)
	case strings.HasPrefix(req.System, protocol.SysParamQA):
		msg, err = handleParamQA(prof, req)
	case strings.HasPrefix(req.System, protocol.SysAnalysis):
		msg, err = handleAnalysis(req)
	case strings.HasPrefix(req.System, protocol.SysReflect):
		msg, err = handleReflect(req)
	case strings.HasPrefix(req.System, protocol.SysTuning):
		msg, err = handleTuning(prof, req)
	default:
		err = fmt.Errorf("simllm: unrecognised system prompt %q", truncate(req.System, 80))
	}
	if err != nil {
		return nil, err
	}
	msg.Role = llm.RoleAssistant
	return &llm.Response{Message: msg, Model: model}, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// lastUser returns the content of the last user message.
func lastUser(req *llm.Request) string {
	for i := len(req.Messages) - 1; i >= 0; i-- {
		if req.Messages[i].Role == llm.RoleUser {
			return req.Messages[i].Content
		}
	}
	return ""
}

// firstUser returns the content of the first user message (the task
// statement carrying the context sections).
func firstUser(req *llm.Request) string {
	for _, m := range req.Messages {
		if m.Role == llm.RoleUser {
			return m.Content
		}
	}
	return ""
}
