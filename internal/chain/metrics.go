package chain

import (
	"sync/atomic"
	"time"

	"legalchain/internal/metrics"
)

// Chain-tier metrics. A devnet process hosts one Blockchain; when tests
// construct several, they share these process-wide instruments, which
// only ever makes the aggregate counts larger, never wrong per scrape.
var (
	mSealSeconds = metrics.Default.Histogram("legalchain_chain_seal_seconds",
		"Wall time to validate, execute and seal a block.", nil)
	mExecSeconds = metrics.Default.Histogram("legalchain_chain_exec_seconds",
		"Wall time to execute one transaction (gas purchase through refund).", nil)
	mStateRootSeconds = metrics.Default.Histogram("legalchain_chain_state_root_seconds",
		"Wall time to compute the post-block world-state root.", nil)
	mCallSeconds = metrics.Default.Histogram("legalchain_chain_call_seconds",
		"Wall time of read-only eth_call execution.", nil)
	mTxpoolPending = metrics.Default.Gauge("legalchain_chain_txpool_pending",
		"Transactions queued for the next MineBlock.")
	mHeadBlock = metrics.Default.Gauge("legalchain_chain_head_block",
		"Number of the latest sealed block.")
	mBlocksSealed = metrics.Default.Counter("legalchain_chain_blocks_sealed_total",
		"Blocks sealed since process start.")
	mTxsExecuted = metrics.Default.Counter("legalchain_chain_txs_total",
		"Transactions executed into sealed blocks since process start.")
	mTxsFailed = metrics.Default.Counter("legalchain_chain_txs_failed_total",
		"Transactions dropped at mining time (bad nonce, insufficient funds, ...).")
	mViewReads = metrics.Default.Counter("legalchain_chain_view_reads_total",
		"Lock-free reads resolved against a published head view.")
	mViewsPublished = metrics.Default.Counter("legalchain_chain_views_published_total",
		"Head views published (seals, recoveries, time adjustments).")
	mBlocksEvicted = metrics.Default.Counter("legalchain_chain_blocks_evicted_total",
		"Cold block bodies evicted from memory to the block log.")
	mBlockReadThrough = metrics.Default.Counter("legalchain_chain_block_read_through_total",
		"Reads of evicted blocks or logs served from the block log.")
	mSubscribers = metrics.Default.Gauge("legalchain_chain_subscribers",
		"Live hub subscriptions (WS + SSE + in-process).")
	mSubEvents = metrics.Default.Counter("legalchain_chain_sub_events_total",
		"Events fanned out into subscriber rings.")
	mSubDropped = metrics.Default.Counter("legalchain_chain_sub_dropped_total",
		"Events dropped because a subscriber ring (or the hub queue) was full.")
)

// lastViewPublishNanos holds the UnixNano timestamp of the most recent
// head-view publication, feeding the view-age gauge below.
var lastViewPublishNanos atomic.Int64

func init() {
	metrics.Default.GaugeFunc("legalchain_chain_head_view_age_seconds",
		"Seconds since the current head view was published.",
		func() float64 {
			ns := lastViewPublishNanos.Load()
			if ns == 0 {
				return 0
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}
