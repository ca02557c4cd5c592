"""placeweave: place networks and motif censuses from device stay records."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    InvariantError,
    MissingPoiError,
    PlaceweaveError,
    RowError,
    SchemaError,
    UnknownSectorError,
    WalkError,
)
from .ingest import (
    PoiCatalog,
    SequenceTable,
    StopTable,
    build_stay_sequences,
    filter_visits,
    load_poi_catalog,
    parse_stops,
)
from .network import PlaceNetwork, build_network, read_network, write_network
from .metrics import (
    DegreeHistogram,
    NetworkSummary,
    PowerLawFit,
    average_clustering,
    degree,
    degree_distribution,
    fit_power_law,
    local_clustering_weighted,
    network_summary,
    poisson_reference,
)
from .motifs import (
    MotifCensus,
    MotifClass,
    InstanceRows,
    TrajectoryCensus,
    census_percentages,
    classify_graph,
    classify_trajectories,
    enumerate_induced,
)
from .attributes import (
    SECTORS,
    AttributedMotifKey,
    SectorCategory,
    attributed_census,
    canonical_keys,
    category_frequency,
    to_sector,
)
from .refnets import RefNetSpec, gen_random_network, gen_scale_free_network
from .stats import (
    EARTH_RADIUS_KM,
    class_avg_distance,
    daily_census_series,
    haversine_km,
    instance_distances,
    moving_average,
    pct_change_series,
)
from .synth import TrafficSpec, WorldSpec, gen_catalog, gen_device_days
from .config import RunConfig, validate_config

__all__ = [name for name in dir() if not name.startswith("_")]
