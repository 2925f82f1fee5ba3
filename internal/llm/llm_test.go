package llm

import (
	"context"
	"sync/atomic"
	"testing"
)

type echoClient struct{ calls atomic.Int64 }

func (e *echoClient) Complete(ctx context.Context, req *Request) (*Response, error) {
	e.calls.Add(1)
	return &Response{Message: Message{Role: RoleAssistant, Content: "reply body here"}}, nil
}

func TestCountTokens(t *testing.T) {
	if CountTokens("") != 0 {
		t.Fatal("empty string has tokens")
	}
	if CountTokens("abcd") != 1 || CountTokens("abcdefgh") != 2 {
		t.Fatal("4-chars-per-token heuristic broken")
	}
}

func TestMeterAccumulatesAndCaches(t *testing.T) {
	m := NewMeter(&echoClient{})
	base := &Request{
		Model:  "x",
		System: "sys prompt",
		Messages: []Message{
			{Role: RoleUser, Content: "a long shared prefix that stays identical across turns"},
		},
	}
	r1, err := m.CompleteSession(context.Background(), "s", base)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Usage.InputTokens == 0 || r1.Usage.OutputTokens == 0 {
		t.Fatalf("usage not filled: %+v", r1.Usage)
	}
	if r1.Usage.CacheReadInputTokens != 0 {
		t.Fatal("first request should have no cache hits")
	}
	// Second request extends the conversation: the shared prefix caches.
	ext := &Request{Model: "x", System: "sys prompt", Messages: append(base.Messages,
		Message{Role: RoleAssistant, Content: "reply body here"},
		Message{Role: RoleUser, Content: "next question"},
	)}
	r2, err := m.CompleteSession(context.Background(), "s", ext)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Usage.CacheReadInputTokens == 0 {
		t.Fatal("no cache hits on an extended conversation")
	}
	if r2.Usage.CacheReadInputTokens > r2.Usage.InputTokens {
		t.Fatal("cached tokens exceed input tokens")
	}
	total := m.SessionUsage("s")
	if total.InputTokens != r1.Usage.InputTokens+r2.Usage.InputTokens {
		t.Fatal("session accumulation wrong")
	}
	if m.SessionRequests("s") != 2 {
		t.Fatal("request count wrong")
	}
	if m.SessionUsage("other").InputTokens != 0 {
		t.Fatal("sessions not isolated")
	}
}

func TestUsageHelpers(t *testing.T) {
	u := Usage{InputTokens: 100, CacheReadInputTokens: 85}
	if u.CacheHitRate() != 0.85 {
		t.Fatalf("cache rate = %g", u.CacheHitRate())
	}
	var zero Usage
	if zero.CacheHitRate() != 0 {
		t.Fatal("zero usage rate")
	}
	zero.Add(u)
	if zero.InputTokens != 100 {
		t.Fatal("add failed")
	}
}

func TestResponseTokensIncludesToolCalls(t *testing.T) {
	m := Message{Content: "abcd", ToolCalls: []ToolCall{{Name: "tool", Arguments: `{"a":1}`}}}
	if ResponseTokens(&m) <= CountTokens("abcd") {
		t.Fatal("tool call tokens not counted")
	}
}
