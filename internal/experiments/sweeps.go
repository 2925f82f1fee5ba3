package experiments

import (
	"context"
	"fmt"

	"stellar/internal/llm/simllm"
	"stellar/internal/manual"
	"stellar/internal/params"
	"stellar/internal/pool"
	"stellar/internal/procfs"
	"stellar/internal/protocol"
	"stellar/internal/rag"
)

// RetrievalSweep is an extension ablation DESIGN.md calls out: how the RAG
// extraction quality responds to the retrieval depth (top-K) and chunk
// size. The paper fixes K=20 and 1024-token chunks; this sweep shows those
// choices sit on the quality plateau, and that starving retrieval genuinely
// loses parameters (the honesty property of the pipeline). Every
// (chunk size, top-K) grid point is an independent extraction and fans out
// under the ctx's budget.
func RetrievalSweep(ctx context.Context, c Config) (*Table, error) {
	c = c.Defaults()
	reg := params.Lustre()
	truth := len(params.TunableNames(reg))
	text := manual.FullText(reg)

	t := &Table{
		ID: "Retrieval sweep", Title: "Extraction quality vs retrieval depth and chunk size",
		Columns: []string{"chunk tokens", "top-K", "selected", "of ground truth", "insufficient"},
	}
	type point struct{ chunkTokens, topK int }
	var grid []point
	for _, chunkTokens := range []int{128, 512, 1024} {
		for _, topK := range []int{1, 3, 20} {
			grid = append(grid, point{chunkTokens, topK})
		}
	}
	rows, err := pool.Values(ctx, len(grid), func(ctx context.Context, i int) ([]string, error) {
		p := grid[i]
		chunks := rag.ChunkText(text, p.chunkTokens, 20)
		index := rag.NewIndex(rag.NewHashedTFIDF(384, chunks), chunks)
		ex := &rag.Extractor{
			Index: index, Client: simllm.New(simllm.GPT4o),
			Model: simllm.GPT4o, TopK: p.topK,
		}
		tunables, rep, err := ex.ExtractAll(ctx, procfs.New(reg))
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("%d", p.chunkTokens),
			fmt.Sprintf("%d", p.topK),
			fmt.Sprintf("%d", len(tunables)),
			fmt.Sprintf("%d/%d", correctCount(tunables, reg), truth),
			fmt.Sprintf("%d", len(rep.Insufficient)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"starved retrieval (small K, tiny chunks) loses parameter sections and range sentences",
		"the paper's defaults (1024 tokens, K=20) recover the full ground-truth set")
	return t, nil
}

func correctCount(tunables []*protocol.TunableParam, reg *params.Registry) int {
	want := map[string]bool{}
	for _, n := range params.TunableNames(reg) {
		want[n] = true
	}
	n := 0
	for _, p := range tunables {
		if want[p.Name] {
			n++
		}
	}
	return n
}
