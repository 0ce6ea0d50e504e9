package geo

import (
	"slices"
	"strings"
)

// Country describes one country in the atlas: ISO 3166-1 alpha-2 code,
// display name, and a relative weight used by the
// synthetic GeoIP database when placing bot populations (roughly tracking
// internet-host populations of the 2012-2013 era the paper covers).
type Country struct {
	Code   string
	Name   string
	Weight float64
	Cities []City
}

// City is a populated place inside a country.
type City struct {
	Name string
	Loc  LatLon
}

// atlas is the built-in coordinate table. Coordinates are approximate
// centroids / major-city locations, sufficient for km-scale geospatial
// statistics. The set intentionally covers every country named in the
// paper's Table V plus a broad backdrop so that source populations can
// span the paper's 186 countries when scaled up.
var atlas = []Country{
	{Code: "US", Name: "United States", Weight: 100, Cities: []City{
		{Name: "New York", Loc: LatLon{40.71, -74.01}},
		{Name: "Los Angeles", Loc: LatLon{34.05, -118.24}},
		{Name: "Chicago", Loc: LatLon{41.88, -87.63}},
		{Name: "Dallas", Loc: LatLon{32.78, -96.80}},
		{Name: "Ashburn", Loc: LatLon{39.04, -77.49}},
		{Name: "Seattle", Loc: LatLon{47.61, -122.33}},
		{Name: "Miami", Loc: LatLon{25.76, -80.19}},
		{Name: "Atlanta", Loc: LatLon{33.75, -84.39}},
	}},
	{Code: "RU", Name: "Russia", Weight: 80, Cities: []City{
		{Name: "Moscow", Loc: LatLon{55.76, 37.62}},
		{Name: "Saint Petersburg", Loc: LatLon{59.93, 30.34}},
		{Name: "Novosibirsk", Loc: LatLon{55.03, 82.92}},
		{Name: "Yekaterinburg", Loc: LatLon{56.84, 60.61}},
		{Name: "Kazan", Loc: LatLon{55.80, 49.11}},
	}},
	{Code: "DE", Name: "Germany", Weight: 45, Cities: []City{
		{Name: "Berlin", Loc: LatLon{52.52, 13.40}},
		{Name: "Frankfurt", Loc: LatLon{50.11, 8.68}},
		{Name: "Munich", Loc: LatLon{48.14, 11.58}},
		{Name: "Hamburg", Loc: LatLon{53.55, 9.99}},
	}},
	{Code: "UA", Name: "Ukraine", Weight: 30, Cities: []City{
		{Name: "Kyiv", Loc: LatLon{50.45, 30.52}},
		{Name: "Kharkiv", Loc: LatLon{49.99, 36.23}},
		{Name: "Odesa", Loc: LatLon{46.48, 30.73}},
	}},
	{Code: "NL", Name: "Netherlands", Weight: 25, Cities: []City{
		{Name: "Amsterdam", Loc: LatLon{52.37, 4.90}},
		{Name: "Rotterdam", Loc: LatLon{51.92, 4.48}},
	}},
	{Code: "CN", Name: "China", Weight: 90, Cities: []City{
		{Name: "Beijing", Loc: LatLon{39.90, 116.41}},
		{Name: "Shanghai", Loc: LatLon{31.23, 121.47}},
		{Name: "Guangzhou", Loc: LatLon{23.13, 113.26}},
		{Name: "Shenzhen", Loc: LatLon{22.54, 114.06}},
		{Name: "Chengdu", Loc: LatLon{30.57, 104.07}},
	}},
	{Code: "IN", Name: "India", Weight: 60, Cities: []City{
		{Name: "Mumbai", Loc: LatLon{19.08, 72.88}},
		{Name: "Delhi", Loc: LatLon{28.70, 77.10}},
		{Name: "Bangalore", Loc: LatLon{12.97, 77.59}},
		{Name: "Chennai", Loc: LatLon{13.08, 80.27}},
	}},
	{Code: "PK", Name: "Pakistan", Weight: 18, Cities: []City{
		{Name: "Karachi", Loc: LatLon{24.86, 67.01}},
		{Name: "Lahore", Loc: LatLon{31.55, 74.34}},
		{Name: "Islamabad", Loc: LatLon{33.68, 73.05}},
	}},
	{Code: "MX", Name: "Mexico", Weight: 22, Cities: []City{
		{Name: "Mexico City", Loc: LatLon{19.43, -99.13}},
		{Name: "Guadalajara", Loc: LatLon{20.66, -103.35}},
		{Name: "Monterrey", Loc: LatLon{25.69, -100.32}},
	}},
	{Code: "KR", Name: "South Korea", Weight: 28, Cities: []City{
		{Name: "Seoul", Loc: LatLon{37.57, 126.98}},
		{Name: "Busan", Loc: LatLon{35.18, 129.08}},
	}},
	{Code: "HK", Name: "Hong Kong", Weight: 12, Cities: []City{
		{Name: "Hong Kong", Loc: LatLon{22.32, 114.17}},
	}},
	{Code: "JP", Name: "Japan", Weight: 35, Cities: []City{
		{Name: "Tokyo", Loc: LatLon{35.68, 139.65}},
		{Name: "Osaka", Loc: LatLon{34.69, 135.50}},
	}},
	{Code: "SG", Name: "Singapore", Weight: 10, Cities: []City{
		{Name: "Singapore", Loc: LatLon{1.35, 103.82}},
	}},
	{Code: "FR", Name: "France", Weight: 32, Cities: []City{
		{Name: "Paris", Loc: LatLon{48.86, 2.35}},
		{Name: "Lyon", Loc: LatLon{45.76, 4.84}},
		{Name: "Marseille", Loc: LatLon{43.30, 5.37}},
	}},
	{Code: "ES", Name: "Spain", Weight: 20, Cities: []City{
		{Name: "Madrid", Loc: LatLon{40.42, -3.70}},
		{Name: "Barcelona", Loc: LatLon{41.39, 2.17}},
	}},
	{Code: "VE", Name: "Venezuela", Weight: 10, Cities: []City{
		{Name: "Caracas", Loc: LatLon{10.48, -66.90}},
		{Name: "Maracaibo", Loc: LatLon{10.65, -71.65}},
	}},
	{Code: "GB", Name: "United Kingdom", Weight: 30, Cities: []City{
		{Name: "London", Loc: LatLon{51.51, -0.13}},
		{Name: "Manchester", Loc: LatLon{53.48, -2.24}},
	}},
	{Code: "CA", Name: "Canada", Weight: 20, Cities: []City{
		{Name: "Toronto", Loc: LatLon{43.65, -79.38}},
		{Name: "Montreal", Loc: LatLon{45.50, -73.57}},
		{Name: "Vancouver", Loc: LatLon{49.28, -123.12}},
	}},
	{Code: "TH", Name: "Thailand", Weight: 14, Cities: []City{
		{Name: "Bangkok", Loc: LatLon{13.76, 100.50}},
	}},
	{Code: "ID", Name: "Indonesia", Weight: 20, Cities: []City{
		{Name: "Jakarta", Loc: LatLon{-6.21, 106.85}},
		{Name: "Surabaya", Loc: LatLon{-7.26, 112.75}},
	}},
	{Code: "BW", Name: "Botswana", Weight: 2, Cities: []City{
		{Name: "Gaborone", Loc: LatLon{-24.63, 25.92}},
	}},
	{Code: "UY", Name: "Uruguay", Weight: 4, Cities: []City{
		{Name: "Montevideo", Loc: LatLon{-34.90, -56.16}},
	}},
	{Code: "CL", Name: "Chile", Weight: 8, Cities: []City{
		{Name: "Santiago", Loc: LatLon{-33.45, -70.67}},
	}},
	{Code: "KG", Name: "Kyrgyzstan", Weight: 2, Cities: []City{
		{Name: "Bishkek", Loc: LatLon{42.87, 74.59}},
	}},
	{Code: "BR", Name: "Brazil", Weight: 40, Cities: []City{
		{Name: "Sao Paulo", Loc: LatLon{-23.55, -46.63}},
		{Name: "Rio de Janeiro", Loc: LatLon{-22.91, -43.17}},
		{Name: "Brasilia", Loc: LatLon{-15.79, -47.88}},
	}},
	{Code: "TR", Name: "Turkey", Weight: 22, Cities: []City{
		{Name: "Istanbul", Loc: LatLon{41.01, 28.98}},
		{Name: "Ankara", Loc: LatLon{39.93, 32.86}},
	}},
	{Code: "IT", Name: "Italy", Weight: 24, Cities: []City{
		{Name: "Rome", Loc: LatLon{41.90, 12.50}},
		{Name: "Milan", Loc: LatLon{45.46, 9.19}},
	}},
	{Code: "PL", Name: "Poland", Weight: 18, Cities: []City{
		{Name: "Warsaw", Loc: LatLon{52.23, 21.01}},
		{Name: "Krakow", Loc: LatLon{50.06, 19.95}},
	}},
	{Code: "RO", Name: "Romania", Weight: 12, Cities: []City{
		{Name: "Bucharest", Loc: LatLon{44.43, 26.10}},
	}},
	{Code: "CZ", Name: "Czechia", Weight: 10, Cities: []City{
		{Name: "Prague", Loc: LatLon{50.08, 14.44}},
	}},
	{Code: "SE", Name: "Sweden", Weight: 10, Cities: []City{
		{Name: "Stockholm", Loc: LatLon{59.33, 18.07}},
	}},
	{Code: "NO", Name: "Norway", Weight: 6, Cities: []City{
		{Name: "Oslo", Loc: LatLon{59.91, 10.75}},
	}},
	{Code: "FI", Name: "Finland", Weight: 6, Cities: []City{
		{Name: "Helsinki", Loc: LatLon{60.17, 24.94}},
	}},
	{Code: "DK", Name: "Denmark", Weight: 6, Cities: []City{
		{Name: "Copenhagen", Loc: LatLon{55.68, 12.57}},
	}},
	{Code: "CH", Name: "Switzerland", Weight: 8, Cities: []City{
		{Name: "Zurich", Loc: LatLon{47.38, 8.54}},
	}},
	{Code: "AT", Name: "Austria", Weight: 7, Cities: []City{
		{Name: "Vienna", Loc: LatLon{48.21, 16.37}},
	}},
	{Code: "BE", Name: "Belgium", Weight: 8, Cities: []City{
		{Name: "Brussels", Loc: LatLon{50.85, 4.35}},
	}},
	{Code: "PT", Name: "Portugal", Weight: 7, Cities: []City{
		{Name: "Lisbon", Loc: LatLon{38.72, -9.14}},
	}},
	{Code: "GR", Name: "Greece", Weight: 7, Cities: []City{
		{Name: "Athens", Loc: LatLon{37.98, 23.73}},
	}},
	{Code: "HU", Name: "Hungary", Weight: 7, Cities: []City{
		{Name: "Budapest", Loc: LatLon{47.50, 19.04}},
	}},
	{Code: "BG", Name: "Bulgaria", Weight: 6, Cities: []City{
		{Name: "Sofia", Loc: LatLon{42.70, 23.32}},
	}},
	{Code: "RS", Name: "Serbia", Weight: 5, Cities: []City{
		{Name: "Belgrade", Loc: LatLon{44.79, 20.45}},
	}},
	{Code: "BY", Name: "Belarus", Weight: 8, Cities: []City{
		{Name: "Minsk", Loc: LatLon{53.90, 27.57}},
	}},
	{Code: "KZ", Name: "Kazakhstan", Weight: 8, Cities: []City{
		{Name: "Almaty", Loc: LatLon{43.22, 76.85}},
	}},
	{Code: "UZ", Name: "Uzbekistan", Weight: 4, Cities: []City{
		{Name: "Tashkent", Loc: LatLon{41.30, 69.24}},
	}},
	{Code: "MD", Name: "Moldova", Weight: 3, Cities: []City{
		{Name: "Chisinau", Loc: LatLon{47.01, 28.86}},
	}},
	{Code: "GE", Name: "Georgia", Weight: 3, Cities: []City{
		{Name: "Tbilisi", Loc: LatLon{41.72, 44.83}},
	}},
	{Code: "AM", Name: "Armenia", Weight: 2, Cities: []City{
		{Name: "Yerevan", Loc: LatLon{40.18, 44.51}},
	}},
	{Code: "AZ", Name: "Azerbaijan", Weight: 3, Cities: []City{
		{Name: "Baku", Loc: LatLon{40.41, 49.87}},
	}},
	{Code: "IR", Name: "Iran", Weight: 15, Cities: []City{
		{Name: "Tehran", Loc: LatLon{35.69, 51.39}},
	}},
	{Code: "IQ", Name: "Iraq", Weight: 5, Cities: []City{
		{Name: "Baghdad", Loc: LatLon{33.31, 44.37}},
	}},
	{Code: "SA", Name: "Saudi Arabia", Weight: 10, Cities: []City{
		{Name: "Riyadh", Loc: LatLon{24.71, 46.68}},
	}},
	{Code: "AE", Name: "United Arab Emirates", Weight: 6, Cities: []City{
		{Name: "Dubai", Loc: LatLon{25.20, 55.27}},
	}},
	{Code: "IL", Name: "Israel", Weight: 6, Cities: []City{
		{Name: "Tel Aviv", Loc: LatLon{32.09, 34.78}},
	}},
	{Code: "EG", Name: "Egypt", Weight: 12, Cities: []City{
		{Name: "Cairo", Loc: LatLon{30.04, 31.24}},
	}},
	{Code: "ZA", Name: "South Africa", Weight: 10, Cities: []City{
		{Name: "Johannesburg", Loc: LatLon{-26.20, 28.05}},
		{Name: "Cape Town", Loc: LatLon{-33.92, 18.42}},
	}},
	{Code: "NG", Name: "Nigeria", Weight: 8, Cities: []City{
		{Name: "Lagos", Loc: LatLon{6.52, 3.38}},
	}},
	{Code: "KE", Name: "Kenya", Weight: 4, Cities: []City{
		{Name: "Nairobi", Loc: LatLon{-1.29, 36.82}},
	}},
	{Code: "MA", Name: "Morocco", Weight: 5, Cities: []City{
		{Name: "Casablanca", Loc: LatLon{33.57, -7.59}},
	}},
	{Code: "DZ", Name: "Algeria", Weight: 5, Cities: []City{
		{Name: "Algiers", Loc: LatLon{36.74, 3.09}},
	}},
	{Code: "TN", Name: "Tunisia", Weight: 3, Cities: []City{
		{Name: "Tunis", Loc: LatLon{36.81, 10.18}},
	}},
	{Code: "AR", Name: "Argentina", Weight: 14, Cities: []City{
		{Name: "Buenos Aires", Loc: LatLon{-34.60, -58.38}},
	}},
	{Code: "CO", Name: "Colombia", Weight: 10, Cities: []City{
		{Name: "Bogota", Loc: LatLon{4.71, -74.07}},
	}},
	{Code: "PE", Name: "Peru", Weight: 6, Cities: []City{
		{Name: "Lima", Loc: LatLon{-12.05, -77.04}},
	}},
	{Code: "EC", Name: "Ecuador", Weight: 4, Cities: []City{
		{Name: "Quito", Loc: LatLon{-0.18, -78.47}},
	}},
	{Code: "BO", Name: "Bolivia", Weight: 3, Cities: []City{
		{Name: "La Paz", Loc: LatLon{-16.49, -68.12}},
	}},
	{Code: "PY", Name: "Paraguay", Weight: 3, Cities: []City{
		{Name: "Asuncion", Loc: LatLon{-25.26, -57.58}},
	}},
	{Code: "VN", Name: "Vietnam", Weight: 16, Cities: []City{
		{Name: "Hanoi", Loc: LatLon{21.03, 105.85}},
		{Name: "Ho Chi Minh City", Loc: LatLon{10.82, 106.63}},
	}},
	{Code: "PH", Name: "Philippines", Weight: 12, Cities: []City{
		{Name: "Manila", Loc: LatLon{14.60, 120.98}},
	}},
	{Code: "MY", Name: "Malaysia", Weight: 10, Cities: []City{
		{Name: "Kuala Lumpur", Loc: LatLon{3.14, 101.69}},
	}},
	{Code: "TW", Name: "Taiwan", Weight: 12, Cities: []City{
		{Name: "Taipei", Loc: LatLon{25.03, 121.57}},
	}},
	{Code: "AU", Name: "Australia", Weight: 16, Cities: []City{
		{Name: "Sydney", Loc: LatLon{-33.87, 151.21}},
		{Name: "Melbourne", Loc: LatLon{-37.81, 144.96}},
	}},
	{Code: "NZ", Name: "New Zealand", Weight: 4, Cities: []City{
		{Name: "Auckland", Loc: LatLon{-36.85, 174.76}},
	}},
	{Code: "BD", Name: "Bangladesh", Weight: 8, Cities: []City{
		{Name: "Dhaka", Loc: LatLon{23.81, 90.41}},
	}},
	{Code: "LK", Name: "Sri Lanka", Weight: 3, Cities: []City{
		{Name: "Colombo", Loc: LatLon{6.93, 79.85}},
	}},
	{Code: "NP", Name: "Nepal", Weight: 2, Cities: []City{
		{Name: "Kathmandu", Loc: LatLon{27.72, 85.32}},
	}},
	{Code: "MM", Name: "Myanmar", Weight: 3, Cities: []City{
		{Name: "Yangon", Loc: LatLon{16.87, 96.20}},
	}},
	{Code: "KH", Name: "Cambodia", Weight: 2, Cities: []City{
		{Name: "Phnom Penh", Loc: LatLon{11.56, 104.92}},
	}},
	{Code: "LT", Name: "Lithuania", Weight: 4, Cities: []City{
		{Name: "Vilnius", Loc: LatLon{54.69, 25.28}},
	}},
	{Code: "LV", Name: "Latvia", Weight: 3, Cities: []City{
		{Name: "Riga", Loc: LatLon{56.95, 24.11}},
	}},
	{Code: "EE", Name: "Estonia", Weight: 3, Cities: []City{
		{Name: "Tallinn", Loc: LatLon{59.44, 24.75}},
	}},
	{Code: "SK", Name: "Slovakia", Weight: 4, Cities: []City{
		{Name: "Bratislava", Loc: LatLon{48.15, 17.11}},
	}},
	{Code: "SI", Name: "Slovenia", Weight: 3, Cities: []City{
		{Name: "Ljubljana", Loc: LatLon{46.06, 14.51}},
	}},
	{Code: "HR", Name: "Croatia", Weight: 4, Cities: []City{
		{Name: "Zagreb", Loc: LatLon{45.82, 15.98}},
	}},
	{Code: "BA", Name: "Bosnia and Herzegovina", Weight: 2, Cities: []City{
		{Name: "Sarajevo", Loc: LatLon{43.86, 18.41}},
	}},
	{Code: "MK", Name: "North Macedonia", Weight: 2, Cities: []City{
		{Name: "Skopje", Loc: LatLon{42.00, 21.43}},
	}},
	{Code: "AL", Name: "Albania", Weight: 2, Cities: []City{
		{Name: "Tirana", Loc: LatLon{41.33, 19.82}},
	}},
	{Code: "IE", Name: "Ireland", Weight: 5, Cities: []City{
		{Name: "Dublin", Loc: LatLon{53.35, -6.26}},
	}},
	{Code: "IS", Name: "Iceland", Weight: 1, Cities: []City{
		{Name: "Reykjavik", Loc: LatLon{64.15, -21.94}},
	}},
	{Code: "CU", Name: "Cuba", Weight: 2, Cities: []City{
		{Name: "Havana", Loc: LatLon{23.11, -82.37}},
	}},
	{Code: "DO", Name: "Dominican Republic", Weight: 2, Cities: []City{
		{Name: "Santo Domingo", Loc: LatLon{18.49, -69.93}},
	}},
	{Code: "GT", Name: "Guatemala", Weight: 2, Cities: []City{
		{Name: "Guatemala City", Loc: LatLon{14.63, -90.51}},
	}},
	{Code: "CR", Name: "Costa Rica", Weight: 2, Cities: []City{
		{Name: "San Jose", Loc: LatLon{9.93, -84.08}},
	}},
	{Code: "PA", Name: "Panama", Weight: 2, Cities: []City{
		{Name: "Panama City", Loc: LatLon{8.98, -79.52}},
	}},
}

// Atlas provides indexed access to the built-in country table.
type Atlas struct {
	byCode  map[string]*Country
	ordered []*Country // sorted by code for deterministic iteration
}

// NewAtlas builds the lookup structures over the built-in country table.
func NewAtlas() *Atlas {
	a := &Atlas{byCode: make(map[string]*Country, len(atlas))}
	for i := range atlas {
		c := &atlas[i]
		a.byCode[c.Code] = c
		a.ordered = append(a.ordered, c)
	}
	slices.SortFunc(a.ordered, func(x, y *Country) int { return strings.Compare(x.Code, y.Code) })
	return a
}

// Countries returns all countries ordered by ISO code.
func (a *Atlas) Countries() []*Country {
	out := make([]*Country, len(a.ordered))
	copy(out, a.ordered)
	return out
}
