// Package rag implements STELLAR's retrieval-augmented generation pipeline
// (§4.2): chunking the file system manual, embedding chunks into a vector
// index, retrieving the most relevant chunks per query, and driving the
// LLM-based parameter extraction and importance filtering.
//
// The embedder is a hashed TF-IDF bag-of-words model — an offline,
// deterministic stand-in for the paper's text-embedding-3-large — behind
// the Embedder interface.
package rag

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// Tokenize lowercases and splits text into word tokens.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '.'
	})
}

// Chunk is one indexed piece of the manual.
type Chunk struct {
	ID   int
	Text string
}

// ChunkText splits text into chunks of at most chunkTokens tokens with the
// given token overlap, following the paper's LlamaIndex defaults (1024
// tokens, 20 overlap). Chunk boundaries respect token boundaries but not
// sentence structure, as token-window chunkers do.
func ChunkText(text string, chunkTokens, overlap int) []Chunk {
	if chunkTokens <= 0 {
		chunkTokens = 1024
	}
	if overlap >= chunkTokens {
		overlap = chunkTokens / 2
	}
	words := strings.Fields(text)
	var chunks []Chunk
	step := chunkTokens - overlap
	for start := 0; start < len(words); start += step {
		end := start + chunkTokens
		if end > len(words) {
			end = len(words)
		}
		chunks = append(chunks, Chunk{ID: len(chunks), Text: strings.Join(words[start:end], " ")})
		if end == len(words) {
			break
		}
	}
	return chunks
}

// Embedder turns text into a fixed-dimension vector.
type Embedder interface {
	Embed(text string) []float32
	Dim() int
}

// HashedTFIDF embeds text as an L2-normalised hashed bag of words weighted
// by corpus IDF. It is deterministic and needs no model weights.
type HashedTFIDF struct {
	dim int
	idf map[string]float64
}

// NewHashedTFIDF fits IDF weights over the given corpus of chunks.
func NewHashedTFIDF(dim int, corpus []Chunk) *HashedTFIDF {
	if dim <= 0 {
		dim = 384
	}
	df := map[string]int{}
	for _, c := range corpus {
		seen := map[string]bool{}
		for _, t := range Tokenize(c.Text) {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	n := float64(len(corpus)) + 1
	idf := make(map[string]float64, len(df))
	for t, d := range df {
		idf[t] = math.Log(n / (1 + float64(d)))
	}
	return &HashedTFIDF{dim: dim, idf: idf}
}

// Dim returns the vector dimension.
func (h *HashedTFIDF) Dim() int { return h.dim }

// Embed implements Embedder.
func (h *HashedTFIDF) Embed(text string) []float32 {
	vec := make([]float32, h.dim)
	for _, t := range Tokenize(text) {
		w := h.idf[t]
		if w == 0 {
			w = 1.0 // unseen terms get neutral weight
		}
		slot := hashToken(t) % uint64(h.dim)
		sign := float32(1)
		if hashToken(t+"#")&1 == 1 {
			sign = -1
		}
		vec[slot] += sign * float32(w)
	}
	normalize(vec)
	return vec
}

func hashToken(t string) uint64 {
	// FNV-1a
	var h uint64 = 1469598103934665603
	for i := 0; i < len(t); i++ {
		h ^= uint64(t[i])
		h *= 1099511628211
	}
	return h
}

func normalize(v []float32) {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	if s == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(s))
	for i := range v {
		v[i] *= inv
	}
}

// Cosine computes cosine similarity of two normalised vectors.
func Cosine(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Hit is one retrieval result.
type Hit struct {
	Chunk Chunk
	Score float64
}

// Index is the queryable vector database over manual chunks.
type Index struct {
	emb    Embedder
	chunks []Chunk
	vecs   [][]float32
}

// NewIndex embeds all chunks.
func NewIndex(emb Embedder, chunks []Chunk) *Index {
	ix := &Index{emb: emb, chunks: chunks}
	for _, c := range chunks {
		ix.vecs = append(ix.vecs, emb.Embed(c.Text))
	}
	return ix
}

// Search returns the top-k chunks by cosine similarity to the query.
func (ix *Index) Search(query string, k int) []Hit {
	qv := ix.emb.Embed(query)
	hits := make([]Hit, 0, len(ix.chunks))
	for i, c := range ix.chunks {
		hits = append(hits, Hit{Chunk: c, Score: Cosine(qv, ix.vecs[i])})
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].Score > hits[b].Score })
	if k > len(hits) {
		k = len(hits)
	}
	return hits[:k]
}
