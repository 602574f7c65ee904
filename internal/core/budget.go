package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// ErrCanceled is the sentinel every cancellation-shaped failure matches
// via errors.Is: context cancellation, context deadline, and explicit
// QueryOptions deadlines all surface as a *CanceledError wrapping it.
var ErrCanceled = fmt.Errorf("rankjoin: query canceled")

// CanceledError reports a query stopped by its context or deadline. It
// carries whatever results were already in descending-score order when
// the budget fired — a best-effort prefix of the true top-k, usable for
// graceful degradation — plus the read units spent producing them.
type CanceledError struct {
	// Cause is context.Canceled, context.DeadlineExceeded, or nil for
	// a QueryOptions.Deadline that elapsed without a context.
	Cause error
	// Partial holds the results accumulated before cancellation.
	Partial []JoinResult
	// ReadUnits is the read-unit spend at the moment the query stopped.
	ReadUnits uint64
}

func (e *CanceledError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("rankjoin: query canceled after %d results, %d read units: %v", len(e.Partial), e.ReadUnits, e.Cause)
	}
	return fmt.Sprintf("rankjoin: query deadline exceeded after %d results, %d read units", len(e.Partial), e.ReadUnits)
}

// Is makes errors.Is(err, ErrCanceled) — and, when the cause is a
// context error, errors.Is(err, context.DeadlineExceeded) via Unwrap —
// both work.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

func (e *CanceledError) Unwrap() error { return e.Cause }

// BudgetExceededError reports a query stopped by its MaxReadUnits cap.
// Like CanceledError it carries the partial results, so a caller can
// choose to serve them with a degraded-quality marker.
type BudgetExceededError struct {
	Limit   uint64 // the configured MaxReadUnits
	Spent   uint64 // read units consumed when the cap fired
	Partial []JoinResult
}

func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("rankjoin: read budget exceeded: %d read units spent of %d allowed (%d results collected)", e.Spent, e.Limit, len(e.Partial))
}

// Budget bounds one query's execution: wall-clock (context + absolute
// deadline) and resource spend (read units, measured on the query's
// metrics lane). A nil *Budget is valid and never trips — the zero-cost
// path for unbounded queries.
//
// Check is called from two kinds of places: the kvstore guard seam
// (every metered RPC, covering work that happens inside index builds,
// materialization, and MapReduce jobs) and the per-result cursor wrap
// in each executor. Both run on the query's goroutine.
type Budget struct {
	Ctx          context.Context
	Deadline     time.Time // zero = none
	MaxReadUnits uint64    // 0 = unlimited

	lane      *sim.Metrics
	baseReads uint64
}

// NewBudget builds a budget from the query options' raw fields,
// returning nil when nothing is bounded.
func NewBudget(ctx context.Context, deadline time.Time, maxReadUnits uint64) *Budget {
	if ctx == nil && deadline.IsZero() && maxReadUnits == 0 {
		return nil
	}
	return &Budget{Ctx: ctx, Deadline: deadline, MaxReadUnits: maxReadUnits}
}

// Attach binds the budget to the metrics lane its read-unit spend is
// measured on, baselining at the lane's current count. Nil-safe.
func (b *Budget) Attach(lane *sim.Metrics) {
	if b == nil || lane == nil {
		return
	}
	b.lane = lane
	b.baseReads = lane.Snapshot().KVReads
}

// Rebind points the budget at a resuming page's bounds: the context
// and deadline of the new request replace the originals — which may
// have expired with the request that opened the cursor — and the
// read-unit cap re-baselines at the lane's current spend, so it caps
// this page rather than the cursor's lifetime. Nil-safe; a cursor
// opened with no budget stays unbounded (there is nothing to rebind
// the guard seam to).
func (b *Budget) Rebind(ctx context.Context, deadline time.Time, maxReadUnits uint64) {
	if b == nil {
		return
	}
	b.Ctx = ctx
	b.Deadline = deadline
	b.MaxReadUnits = maxReadUnits
	if b.lane != nil {
		b.baseReads = b.lane.Snapshot().KVReads
	}
}

// Spent returns the read units consumed since Attach. Nil-safe.
func (b *Budget) Spent() uint64 {
	if b == nil || b.lane == nil {
		return 0
	}
	return b.lane.Snapshot().KVReads - b.baseReads
}

// Check returns nil while the query may continue, or the typed error
// that should stop it: *CanceledError for context/deadline,
// *BudgetExceededError for the read-unit cap. Nil-safe; partial results
// are attached by the query layer, which alone knows them.
func (b *Budget) Check() error {
	if b == nil {
		return nil
	}
	if b.Ctx != nil {
		if err := b.Ctx.Err(); err != nil {
			return &CanceledError{Cause: err, ReadUnits: b.Spent()}
		}
	}
	if !b.Deadline.IsZero() && !time.Now().Before(b.Deadline) {
		return &CanceledError{ReadUnits: b.Spent()}
	}
	if b.MaxReadUnits > 0 {
		if spent := b.Spent(); spent > b.MaxReadUnits {
			return &BudgetExceededError{Limit: b.MaxReadUnits, Spent: spent}
		}
	}
	return nil
}

// GuardedView returns c with the budget's guard installed (and its
// spend baselined on c's metrics lane). A nil budget returns c
// unchanged.
func (b *Budget) GuardedView(c *kvstore.Cluster) *kvstore.Cluster {
	if b == nil {
		return c
	}
	b.Attach(c.Metrics())
	return c.WithGuard(b.Check)
}

// budgetCursor enforces the budget between results: executors wrap
// their cursor in Open so even a fully-materialized plan stops handing
// out rows once the query is over budget.
type budgetCursor struct {
	src Cursor
	b   *Budget
}

// WrapBudget applies the budget to a cursor; nil budgets pass the
// cursor through untouched.
func WrapBudget(c Cursor, b *Budget) Cursor {
	if b == nil {
		return c
	}
	return &budgetCursor{src: c, b: b}
}

func (c *budgetCursor) Next() (*JoinResult, error) {
	if err := c.b.Check(); err != nil {
		return nil, err
	}
	return c.src.Next()
}

func (c *budgetCursor) Close() error { return c.src.Close() }
