"""The five workloads, by the names ``BENCHMARK.json`` lists."""

from .bulk import BulkRam, BulkStore
from .index_churn import IndexChurn
from .online_pool import OnlinePool
from .train_epoch import TrainEpoch

WORKLOADS = {
    workload.name: workload
    for workload in (BulkRam, BulkStore, OnlinePool, IndexChurn, TrainEpoch)
}
