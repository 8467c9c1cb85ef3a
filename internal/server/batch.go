package server

import (
	"net/http"
	"sync"
)

const (
	// batchMaxItems caps the items per batch call.
	batchMaxItems = 256
	// batchParallel bounds how many items of one batch run through the core
	// at once.
	batchParallel = 8
)

// BatchRecommendRequest is the POST /v1/recommend/batch body: up to
// batchMaxItems (256) independent recommend requests.
type BatchRecommendRequest struct {
	Items []RecommendRequest `json:"items"`
}

// BatchItemResult is one item's outcome. Exactly one of Result and Error is
// set; Status is the HTTP status the item would have received standalone.
type BatchItemResult struct {
	Index  int                `json:"index"`
	Status int                `json:"status"`
	Result *RecommendResponse `json:"result,omitempty"`
	Error  *ErrorBody         `json:"error,omitempty"`
}

// BatchRecommendResponse is the batch reply. The call itself is 200 as long
// as the batch was well-formed; per-item failures are reported in place so
// one bad OD pair doesn't void the other results.
type BatchRecommendResponse struct {
	Results   []BatchItemResult `json:"results"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// handleRecommendBatch fans the items through the concurrent core with
// bounded parallelism (batchParallel), amortizing per-request HTTP
// overhead for bulk clients. The request context covers the whole batch: a
// disconnect cancels in-flight items and fails the rest as cancelled.
func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRecommendRequest
	if !decodeBody(w, r, maxBatchBodyBytes, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "items must be non-empty")
		return
	}
	if len(req.Items) > batchMaxItems {
		writeErr(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
			"batch of %d items exceeds the limit of %d", len(req.Items), batchMaxItems)
		return
	}

	ctx := r.Context()
	results := make([]BatchItemResult, len(req.Items))
	sem := make(chan struct{}, batchParallel)
	var wg sync.WaitGroup
	for i, item := range req.Items {
		creq, err := item.coreRequest()
		if err != nil {
			results[i] = failedItem(i, err)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				results[i] = failedItem(i, ctx.Err())
				return
			}
			resp, err := s.sys.Recommend(ctx, creq)
			if err != nil {
				results[i] = failedItem(i, err)
				return
			}
			results[i] = BatchItemResult{Index: i, Status: http.StatusOK,
				Result: s.recommendResponse(resp, item.DepartMin)}
		}()
	}
	wg.Wait()

	out := BatchRecommendResponse{Results: results}
	for _, res := range results {
		if res.Error == nil {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// failedItem is item i's result for err, with the status and code the item
// would have received standalone.
func failedItem(i int, err error) BatchItemResult {
	status, code := classify(err)
	return BatchItemResult{Index: i, Status: status, Error: &ErrorBody{Code: code, Message: err.Error()}}
}
