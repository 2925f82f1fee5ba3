// Package llm defines the provider-neutral chat/tool-calling interface
// STELLAR's agents are built on, plus token accounting and prompt-cache
// statistics (§5.7 of the paper). The backend is llm/simllm: deterministic
// expert-policy models that stand in for hosted models offline. A hosted
// backend implements the same Client interface.
package llm

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// Role identifies a message author.
type Role string

const (
	RoleUser      Role = "user"
	RoleAssistant Role = "assistant"
	RoleTool      Role = "tool"
)

// ToolCall is a model-requested tool invocation with JSON arguments.
type ToolCall struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Arguments string `json:"arguments"`
}

// Message is one chat turn.
type Message struct {
	Role       Role       `json:"role"`
	Content    string     `json:"content"`
	ToolCalls  []ToolCall `json:"tool_calls,omitempty"`
	ToolCallID string     `json:"tool_call_id,omitempty"` // for RoleTool results
}

// ToolDef describes a callable tool exposed to the model.
type ToolDef struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Schema      string `json:"schema"` // JSON schema of the arguments
}

// Request is one chat completion request.
type Request struct {
	Model    string
	System   string
	Messages []Message
	Tools    []ToolDef
}

// Usage reports token consumption for one response.
type Usage struct {
	InputTokens          int
	OutputTokens         int
	CacheReadInputTokens int // input tokens served from the prompt cache
}

// Add accumulates usage.
func (u *Usage) Add(o Usage) {
	u.InputTokens += o.InputTokens
	u.OutputTokens += o.OutputTokens
	u.CacheReadInputTokens += o.CacheReadInputTokens
}

// CacheHitRate returns the fraction of input tokens served from cache.
func (u Usage) CacheHitRate() float64 {
	if u.InputTokens == 0 {
		return 0
	}
	return float64(u.CacheReadInputTokens) / float64(u.InputTokens)
}

// Response is a chat completion.
type Response struct {
	Message Message
	Usage   Usage
	Model   string
}

// Client is the minimal completion interface agents depend on. Every
// backend honours ctx: cancellation aborts the call promptly with ctx.Err()
// (simllm checks before answering; a network backend would cancel its
// in-flight request), which is what lets a SIGINT unwind a whole tuning run.
// Implementations must be safe for concurrent use.
type Client interface {
	Complete(ctx context.Context, req *Request) (*Response, error)
}

// CountTokens estimates token count with the conventional ~4 chars/token
// heuristic; exact tokenisation is unnecessary for cost accounting shape.
func CountTokens(s string) int {
	n := (len(s) + 3) / 4
	if n == 0 && len(s) > 0 {
		n = 1
	}
	return n
}

// serialize renders a request deterministically for token counting and
// prefix-cache comparison.
func serialize(req *Request) string {
	var b strings.Builder
	b.WriteString("model:" + req.Model + "\n")
	b.WriteString("system:" + req.System + "\n")
	for _, t := range req.Tools {
		fmt.Fprintf(&b, "tool:%s %s %s\n", t.Name, t.Description, t.Schema)
	}
	for _, m := range req.Messages {
		fmt.Fprintf(&b, "%s:%s", m.Role, m.Content)
		for _, tc := range m.ToolCalls {
			fmt.Fprintf(&b, " call[%s %s %s]", tc.ID, tc.Name, tc.Arguments)
		}
		if m.ToolCallID != "" {
			fmt.Fprintf(&b, " for[%s]", m.ToolCallID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RequestTokens estimates the input token count of a request.
func RequestTokens(req *Request) int { return CountTokens(serialize(req)) }

// ResponseTokens estimates the output token count of a response message.
func ResponseTokens(m *Message) int {
	n := CountTokens(m.Content)
	for _, tc := range m.ToolCalls {
		n += CountTokens(tc.Name) + CountTokens(tc.Arguments)
	}
	return n
}

// Meter wraps a Client with usage accounting and prompt-cache simulation.
// Like real inference services, consecutive requests in one conversation
// share a key-value cache for their common prefix; Meter measures that
// overlap per logical session. All session accounting is mutex-guarded so
// concurrent agent sessions (parallel tuning runs, parallel figure arms)
// never race; sessions are independent lineages, so concurrency across
// sessions does not perturb any session's cache statistics.
type Meter struct {
	inner Client

	mu       sync.Mutex
	lastSer  map[string]string // session -> previous serialized request
	totals   map[string]*Usage
	requests map[string]int
}

// NewMeter wraps inner.
func NewMeter(inner Client) *Meter {
	return &Meter{
		inner:    inner,
		lastSer:  make(map[string]string),
		totals:   make(map[string]*Usage),
		requests: make(map[string]int),
	}
}

// CompleteSession performs a completion attributed to the named session
// (e.g. "tuning-agent", "analysis-agent").
func (m *Meter) CompleteSession(ctx context.Context, session string, req *Request) (*Response, error) {
	resp, err := m.inner.Complete(ctx, req)
	if err != nil {
		return nil, err
	}
	ser := serialize(req)
	in := CountTokens(ser)
	m.mu.Lock()
	defer m.mu.Unlock()
	cached := CountTokens(commonPrefix(m.lastSer[session], ser))
	if cached > in {
		cached = in
	}
	m.lastSer[session] = ser
	resp.Usage = Usage{
		InputTokens:          in,
		OutputTokens:         ResponseTokens(&resp.Message),
		CacheReadInputTokens: cached,
	}
	t, ok := m.totals[session]
	if !ok {
		t = &Usage{}
		m.totals[session] = t
	}
	t.Add(resp.Usage)
	m.requests[session]++
	return resp, nil
}

// Complete implements Client, attributing to a default session.
func (m *Meter) Complete(ctx context.Context, req *Request) (*Response, error) {
	return m.CompleteSession(ctx, "default", req)
}

// SessionUsage returns accumulated usage for a session.
func (m *Meter) SessionUsage(session string) Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.totals[session]; ok {
		return *t
	}
	return Usage{}
}

// SessionRequests returns the number of requests in a session.
func (m *Meter) SessionRequests(session string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests[session]
}

func commonPrefix(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}
